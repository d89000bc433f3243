"""Estimator contracts: output invariants, determinism, and sanity of ranking."""

import functools
import re
import tracemalloc

import numpy as np
import pytest

from sourceset import conformal, diffusion
from sourceset.conformal import block_rows
from sourceset.diffusion import (
    INFECTED,
    SUSCEPTIBLE,
    GenerativeConfig,
    LabeledSample,
    SirParams,
    SnapshotMatrix,
    load_dataset,
    observe,
    sample_dataset,
    save_dataset,
    simulate,
)
from sourceset.estimators import (
    PROB_FLOOR,
    build_estimator,
    estimate_blocks,
    estimate_heuristic,
    estimate_heuristic_batch,
    estimate_monte_carlo,
    estimate_oracle,
    load_prob_vectors,
    parse_estimator_spec,
    save_prob_vectors,
    validate_prob_vector,
)
from sourceset.graph import barabasi_albert_graph, build_graph, complete_graph
from sourceset.util import substream


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def snapshot(statuses, times):
    return SnapshotMatrix(statuses=np.asarray(statuses, dtype=np.int8),
                          times=np.asarray(times, dtype=np.int64))


def random_samples(graph, n, seed, **gen_overrides):
    values = dict(source_count=(1, 3), r0=None, sigma_inf=(0.1, 0.4),
                  sigma_rec=(0.0, 0.3), n_snapshots=4, t_first=2)
    values.update(gen_overrides)
    return sample_dataset(graph, GenerativeConfig(**values), n, seed)


def reference_heuristic(x, graph):
    """The heuristic's neighbor-deficit rule written as a per-node loop."""
    ever = x.statuses != SUSCEPTIBLE
    seen = ever.any(axis=1)
    first_col = np.where(seen, np.argmax(ever, axis=1), 0)
    earliness = np.where(seen, 0.5 ** first_col, 0.0)
    first = x.statuses[:, 0]
    deficit = np.zeros(x.n_nodes)
    for v in np.flatnonzero(first != SUSCEPTIBLE):
        nbrs = graph.neighbors(v)
        if nbrs.size == 0:
            deficit[v] = 1.0
        else:
            deficit[v] = np.count_nonzero(first[nbrs] == SUSCEPTIBLE) / nbrs.size
    probs = np.clip(0.6 * earliness + 0.4 * deficit, 0.0, 1.0)
    probs[~seen] = PROB_FLOOR
    return np.maximum(probs, PROB_FLOOR)


def average_ranks(values):
    """Ranks with ties averaged, ascending."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    sorted_vals = np.asarray(values)[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0
        i = j + 1
    return ranks


def spearman(a, b):
    ra, rb = average_ranks(a), average_ranks(b)
    return float(np.corrcoef(ra, rb)[0, 1])


class TestHeuristic:
    def test_all_susceptible_gives_floor_everywhere(self):
        g = complete_graph(5)
        x = snapshot(np.zeros((5, 3)), [1, 2, 3])
        probs = estimate_heuristic(x, g)
        assert np.all(probs == PROB_FLOOR)

    def test_single_infected_node_dominates(self):
        g = barabasi_albert_graph(20, 2, seed=1)
        statuses = np.zeros((20, 2), dtype=np.int8)
        statuses[7, :] = INFECTED
        probs = estimate_heuristic(snapshot(statuses, [1, 2]), g)
        assert np.argmax(probs) == 7
        assert np.sum(probs == probs[7]) == 1

    def test_later_first_sight_scores_lower(self):
        g = path_graph(6)
        statuses = np.zeros((6, 3), dtype=np.int8)
        statuses[0, :] = INFECTED          # seen from the first snapshot
        statuses[1, 1:] = INFECTED         # appears one snapshot later
        probs = estimate_heuristic(snapshot(statuses, [1, 2, 3]), g)
        assert probs[0] > probs[1] > PROB_FLOOR

    def test_beats_random_scorer_at_ranking_sources(self):
        g = barabasi_albert_graph(100, 2, seed=3)
        samples = random_samples(g, 500, seed=21, source_count=1,
                                 sigma_inf=(0.1, 0.2))
        top = max(1, g.n_nodes // 10)
        heuristic_hits = 0
        random_hits = 0
        for i, s in enumerate(samples):
            probs = estimate_heuristic(s.x, g)
            rand = substream(99, i).random(g.n_nodes)
            src = int(s.sources[0])
            for scores, bump in ((probs, "h"), (rand, "r")):
                order = np.argsort(-scores, kind="stable")
                hit = src in set(order[:top].tolist())
                if bump == "h":
                    heuristic_hits += hit
                else:
                    random_hits += hit
        assert heuristic_hits > random_hits

    def test_matches_per_node_reference_bitwise(self):
        # nodes 40..44 are isolated, so degree-0 infected nodes occur
        ba = barabasi_albert_graph(40, 2, seed=5)
        g = build_graph(45, ba.edge_set())
        samples = random_samples(g, 300, seed=8, source_count=(1, 6), t_first=1)
        assert any(s.x.statuses[40:, 0].any() for s in samples)
        for s in samples:
            assert np.array_equal(estimate_heuristic(s.x, g), reference_heuristic(s.x, g))

    @pytest.mark.parametrize("rows", [1, 7, block_rows(45)])
    def test_batch_rows_match_per_node_reference_bitwise(self, tmp_path, rows):
        # the graph of test_matches_per_node_reference_bitwise; samples as
        # simulated (transposed views of one window per chunk) and as read back
        ba = barabasi_albert_graph(40, 2, seed=5)
        g = build_graph(45, ba.edge_set())
        samples = random_samples(g, 120, seed=8, source_count=(1, 6), t_first=1)
        assert any(s.x.statuses[40:, 0].any() for s in samples)
        save_dataset(samples, tmp_path / "d.jsonl", 8, {})
        loaded, _ = load_dataset(tmp_path / "d.jsonl")
        for group in (samples, loaded):
            for lo in range(0, len(group), rows):
                block = group[lo:lo + rows]
                probs = estimate_heuristic_batch(
                    np.stack([s.x.statuses.T for s in block]), g)
                assert probs.shape == (len(block), g.n_nodes)
                for s, row in zip(block, probs, strict=True):
                    assert np.array_equal(row, reference_heuristic(s.x, g))

    def test_batch_rejects_snapshots_of_another_graph(self):
        with pytest.raises(ValueError, match="cover 5 nodes, graph has 6"):
            estimate_heuristic_batch(np.zeros((2, 3, 5), dtype=np.int8), path_graph(6))

    def test_block_memory_follows_first_sight_infections(self):
        """Only nodes infected in the first snapshot read their susceptible
        neighbours, so a dense graph's arcs are not held once per row: on
        complete:300 (89,700 arcs) that would trace rows * arcs * 8 bytes,
        about 700 times the block's own (rows, N) float64 output."""
        g = complete_graph(300)
        rows = block_rows(300)
        rng = np.random.default_rng(0)
        # two nodes per row infected at first sight, the others later or never
        first_seen = rng.integers(1, 32, size=(rows, 300))
        first_seen[np.arange(rows)[:, None], rng.choice(300, size=2, replace=False)] = 0
        statuses = np.where(np.arange(16)[:, None] >= first_seen[:, None, :],
                            INFECTED, SUSCEPTIBLE).astype(np.int8)
        tracemalloc.start()
        try:
            probs = estimate_heuristic_batch(statuses, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert probs.shape == (rows, 300)
        assert peak < 16 * rows * 300 * 8

    def test_output_contract_fuzz(self):
        g = barabasi_albert_graph(30, 2, seed=5)
        rng = np.random.default_rng(0)
        for _ in range(200):
            m = int(rng.integers(1, 5))
            statuses = np.minimum(np.cumsum(
                rng.integers(0, 2, size=(30, m)), axis=1), 2).astype(np.int8)
            x = snapshot(statuses, np.arange(1, m + 1))
            validate_prob_vector(estimate_heuristic(x, g), 30)


class TestMonteCarlo:
    def test_deterministic_spread_gives_fitness_one(self):
        g = path_graph(7)
        params = SirParams(sigma_inf=1.0, sigma_rec=0.0, horizon=4)
        traj = simulate(g, params, [3], seed=0)
        x = observe(traj, t_first=1, n_snapshots=3)
        probs = estimate_monte_carlo(x, g, params, k_sims=5, seed=4)
        assert probs[3] == pytest.approx(1.0)
        assert np.argmax(probs) == 3

    def test_disconnected_candidate_gets_floor(self):
        # two components; observed spread lives in the first one
        edges = [(0, 1), (1, 2), (3, 4), (4, 5)]
        g = build_graph(6, edges)
        params = SirParams(sigma_inf=1.0, sigma_rec=0.0, horizon=3)
        statuses = np.zeros((6, 2), dtype=np.int8)
        statuses[[0, 1, 2], :] = INFECTED
        statuses[3, :] = INFECTED  # implausible candidate in the other component
        probs = estimate_monte_carlo(snapshot(statuses, [1, 2]), g, params,
                                     k_sims=10, seed=1)
        assert probs[3] < probs[0]
        assert probs[5] == PROB_FLOOR  # never a candidate

    def test_seed_stability_spearman(self):
        g = barabasi_albert_graph(50, 2, seed=7)
        params = SirParams(sigma_inf=0.3, sigma_rec=0.1, horizon=6)
        traj = simulate(g, params, [11], seed=2)
        x = observe(traj, t_first=2, n_snapshots=4)
        a = estimate_monte_carlo(x, g, params, k_sims=200, seed=100)
        b = estimate_monte_carlo(x, g, params, k_sims=200, seed=200)
        assert spearman(a, b) > 0.8

    def test_deterministic_per_seed(self):
        g = barabasi_albert_graph(25, 2, seed=7)
        params = SirParams(sigma_inf=0.3, sigma_rec=0.1, horizon=5)
        traj = simulate(g, params, [4], seed=2)
        x = observe(traj, t_first=1, n_snapshots=4)
        a = estimate_monte_carlo(x, g, params, k_sims=20, seed=5)
        b = estimate_monte_carlo(x, g, params, k_sims=20, seed=5)
        assert np.array_equal(a, b)

    def test_chunk_size_changes_nothing(self, monkeypatch):
        g = barabasi_albert_graph(40, 2, seed=4)
        samples = random_samples(g, 8, seed=12, source_count=(2, 5))
        whole = [estimate_monte_carlo(s.x, g, s.params, k_sims=3, seed=s.index)
                 for s in samples]
        monkeypatch.setattr(diffusion, "SIM_CHUNK_BYTES", 1)  # one row per chunk
        for s, probs in zip(samples, whole):
            assert np.array_equal(
                estimate_monte_carlo(s.x, g, s.params, k_sims=3, seed=s.index), probs)

    def test_dense_graph_chunk_counts_its_arc_tables(self):
        # 3 candidates x 40 runs of 5 steps on complete:120: a chunk sized by
        # uniforms alone holds all 120 rows with 14,280 arcs each and traces
        # 39 MB. Counting the arcs, the peak is the chunk's arc table and a
        # scatter's two arc-length temporaries, about 3 budgets
        g = complete_graph(120)
        params = SirParams(sigma_inf=0.05, sigma_rec=0.1, horizon=5)
        statuses = np.zeros((120, 5), dtype=np.int8)
        statuses[:3] = INFECTED
        x = snapshot(statuses, np.arange(1, 6))
        tracemalloc.start()
        try:
            estimate_monte_carlo(x, g, params, k_sims=40, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * diffusion.SIM_CHUNK_BYTES

    def test_output_contract(self):
        g = barabasi_albert_graph(25, 2, seed=9)
        samples = random_samples(g, 20, seed=31)
        for s in samples:
            probs = estimate_monte_carlo(s.x, g, s.params, k_sims=3, seed=s.index)
            validate_prob_vector(probs, 25)


class TestOracle:
    def make_sample(self, n=20, sources=(3, 8)):
        statuses = np.zeros((n, 1), dtype=np.int8)
        x = snapshot(statuses, [1])
        return LabeledSample(index=0, x=x,
                             sources=np.asarray(sources, dtype=np.int64),
                             params=SirParams(0.5, 0.0, horizon=1))

    def test_noise_zero_is_indicator(self):
        s = self.make_sample()
        probs = estimate_oracle(s, noise=0.0, seed=1)
        assert np.all(probs[list(s.sources)] == 1.0)
        mask = np.ones(20, dtype=bool)
        mask[list(s.sources)] = False
        assert np.all(probs[mask] == 0.0)

    def test_noise_one_ignores_sources(self):
        s = self.make_sample()
        probs = estimate_oracle(s, noise=1.0, seed=1)
        expected = substream(1).random(20)
        assert np.array_equal(probs, expected)

    def test_intermediate_noise_between_extremes(self):
        s = self.make_sample()
        src = list(s.sources)
        separations = []
        for noise in (0.0, 0.5, 1.0):
            probs = estimate_oracle(s, noise=noise, seed=3)
            non_src = np.delete(probs, src)
            separations.append(float(probs[src].min() - non_src.max()))
        assert separations[0] > separations[1] > separations[2]

    def test_noise_validation(self):
        s = self.make_sample()
        with pytest.raises(ValueError):
            estimate_oracle(s, noise=1.5, seed=0)


class TestProbVectorFiles:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        table = {0: rng.random(6), 3: rng.random(6)}
        path = tmp_path / "probs.txt"
        save_prob_vectors(table, 6, path)
        loaded = load_prob_vectors(path)
        assert set(loaded) == {0, 3}
        for k in table:
            assert np.array_equal(loaded[k], table[k])

    @pytest.mark.parametrize("text, lineno", [
        ("# prob-vectors n_nodes=3\nx 0.1 0.2 0.3\n", 2),
        ("# prob-vectors n_nodes=3\n0 0.1 abc 0.3\n", 2),
        ("# prob-vectors n_nodes=three\n0 0.1 0.2 0.3\n", 1),
        ("0 0.1 0.2 0.3\n\n1 0.1 0.2\n", 3),
        ("0 0.1 0.2 0.3\n1 0.1 0.2 0.3\n0 0.3 0.2 0.1\n", 3)])
    def test_parse_errors_name_file_and_line(self, tmp_path, text, lineno):
        path = tmp_path / "probs.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line {lineno}: "):
            load_prob_vectors(path, n_nodes=3)

    def test_file_estimator_lookup(self, tmp_path):
        g = complete_graph(6)
        rng = np.random.default_rng(4)
        table = {0: rng.random(6)}
        path = tmp_path / "probs.txt"
        save_prob_vectors(table, 6, path)
        est = build_estimator(f"file:{path}", g)
        statuses = np.zeros((6, 1), dtype=np.int8)
        sample = LabeledSample(index=0, x=snapshot(statuses, [1]),
                               sources=np.array([0]),
                               params=SirParams(0.5, 0.0, horizon=1))
        assert np.array_equal(est(sample, None), table[0])
        missing = LabeledSample(index=7, x=sample.x, sources=sample.sources,
                                params=sample.params)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "
                                             "no probability row for sample 7$"):
            est(missing, None)


class TestEstimateBlocks:
    def samples(self, g):
        # two window lengths, so that a change of length starts a block
        return (random_samples(g, 20, seed=4, n_snapshots=4)
                + random_samples(g, 13, seed=5, n_snapshots=3))

    def blocks(self, estimator, samples, seed=6):
        created = []

        def rng_of(sample):
            created.append(sample.index)
            return substream(seed, sample.index)

        return list(estimate_blocks(estimator, samples, rng_of)), created

    def direct(self, spec, g, table):
        """The per-sample vector of a spec from the estimator functions
        themselves, with the rng estimate_blocks gives its sample."""
        kind, arg = parse_estimator_spec(spec)
        return {"heuristic": lambda s: reference_heuristic(s.x, g),
                "oracle": lambda s: estimate_oracle(s, arg, substream(6, s.index)),
                "mc": lambda s: estimate_monte_carlo(s.x, g, s.params, arg,
                                                     substream(6, s.index)),
                "file": lambda s: table[s.index]}[kind]

    def case(self, tmp_path, spec):
        """(graph, samples, spec, table) of a parametrized spec; "file" is
        written with rows for the first 20 samples."""
        g = barabasi_albert_graph(30, 2, seed=3)
        samples = self.samples(g)
        table = None
        if spec == "file":
            rng = np.random.default_rng(1)
            table = {i: rng.random(30) for i in range(20)}
            save_prob_vectors(table, 30, tmp_path / "p.txt")
            spec = f"file:{tmp_path / 'p.txt'}"
            samples = samples[:20]
        return g, samples, spec, table

    @pytest.mark.parametrize("spec", ["heuristic", "oracle:0.4", "mc:2", "file"])
    def test_rows_equal_estimator_functions(self, tmp_path, spec):
        g, samples, spec, table = self.case(tmp_path, spec)
        blocks, created = self.blocks(build_estimator(spec, g), samples)
        runs = (20,) if spec.startswith("file:") else (20, 13)
        most = block_rows(30)
        assert [len(block) for block, _ in blocks] == \
            [min(most, run - lo) for run in runs for lo in range(0, run, most)]
        assert [s for block, _ in blocks for s in block] == samples
        direct = self.direct(spec, g, table)
        for block, ranked in blocks:
            assert ranked.probs.shape == (len(block), 30)
            for s, row in zip(block, ranked.probs, strict=True):
                assert np.array_equal(row, direct(s))
            # each row's source set is its sample's
            assert ranked.source_counts.tolist() == [s.sources.size for s in block]
            for r, s in enumerate(block):
                assert np.array_equal(ranked.source_nodes[ranked.source_rows == r],
                                      s.sources)
        # only estimators that draw from it get a per-sample rng
        random = spec.startswith(("oracle:", "mc:"))
        assert created == ([s.index for s in samples] if random else [])

    @pytest.mark.parametrize("spec", ["heuristic", "oracle:0.4", "mc:2", "file"])
    def test_one_row_call_equals_estimator_functions(self, tmp_path, spec):
        g, samples, spec, table = self.case(tmp_path, spec)
        estimator = build_estimator(spec, g)
        direct = self.direct(spec, g, table)
        for s in samples[::3]:
            assert np.array_equal(estimator(s, substream(6, s.index)), direct(s))

    @pytest.mark.parametrize("spec", ["heuristic", "oracle:0.4", "mc:2", "file"])
    def test_wrapped_estimator_gives_the_same_rows(self, tmp_path, spec):
        """A bare function made with functools.wraps, as a timing wrapper
        would return it, keeps `batch` and so the same rows."""
        g, samples, spec, table = self.case(tmp_path, spec)
        estimator = build_estimator(spec, g)

        @functools.wraps(estimator)
        def wrapped(sample, rng):
            return estimator(sample, rng)

        plain, plain_created = self.blocks(estimator, samples)
        traced, traced_created = self.blocks(wrapped, samples)
        assert traced_created == plain_created
        assert [b for b, _ in traced] == [b for b, _ in plain]
        assert np.array_equal(np.concatenate([r.probs for _, r in traced]),
                              np.concatenate([r.probs for _, r in plain]))

    @pytest.mark.parametrize("rows", [1, 7])
    def test_block_size_changes_no_row(self, monkeypatch, rows):
        g = barabasi_albert_graph(30, 2, seed=3)
        samples = self.samples(g)
        heuristic = build_estimator("heuristic", g)
        default = np.concatenate([r.probs for _, r in self.blocks(heuristic, samples)[0]])
        monkeypatch.setattr(conformal, "_SCORE_BLOCK_BYTES", rows * 8 * g.n_nodes)
        blocks, _ = self.blocks(heuristic, samples)
        assert max(len(block) for block, _ in blocks) == rows
        assert np.array_equal(np.concatenate([r.probs for _, r in blocks]), default)


class TestBuildEstimator:
    def test_known_specs(self):
        g = complete_graph(5)
        for spec in ("heuristic", "oracle:0.5", "mc:3"):
            assert callable(build_estimator(spec, g))
        with pytest.raises(ValueError):
            build_estimator("gnn", g)

    def test_rng_of_called_once_per_row_only_by_estimators_that_draw(self, tmp_path):
        g = complete_graph(5)
        samples = random_samples(g, 3, seed=2, n_snapshots=2)
        save_prob_vectors({s.index: np.full(5, 0.5) for s in samples}, 5,
                          tmp_path / "p.txt")
        calls = {}
        for spec in ("heuristic", "oracle:0.5", "oracle", "mc:3", "mc",
                     f"file:{tmp_path / 'p.txt'}"):
            asked = calls[spec] = []

            def rng_of(sample, asked=asked):
                asked.append(sample.index)
                return substream(1, sample.index)

            assert build_estimator(spec, g).batch(samples, rng_of).shape == (3, 5)
        rows = [s.index for s in samples]
        assert list(calls.values()) == [[], rows, rows, rows, rows, []]

    def test_defaults(self):
        assert parse_estimator_spec("oracle") == ("oracle", 0.0)
        assert parse_estimator_spec("oracle:") == ("oracle", 0.0)
        assert parse_estimator_spec("mc") == ("mc", 50)
        assert parse_estimator_spec("mc:7") == ("mc", 7)
        assert parse_estimator_spec("file:a:b.txt") == ("file", "a:b.txt")

    @pytest.mark.parametrize("spec, message", [
        ("heuristic:foo", "heuristic takes no argument"),
        ("heuristic:", "heuristic takes no argument"),
        ("mc:x", "K_SIMS must be an integer >= 1"),
        ("mc:2.5", "K_SIMS must be an integer >= 1"),
        ("mc:0", "K_SIMS must be an integer >= 1"),
        ("mc:-3", "K_SIMS must be an integer >= 1"),
        ("oracle:x", "NOISE must be a number in [0, 1]"),
        ("oracle:2", "NOISE must be a number in [0, 1]"),
        ("oracle:-0.1", "NOISE must be a number in [0, 1]"),
        ("oracle:nan", "NOISE must be a number in [0, 1]"),
        ("file:", "file: needs a PATH"),
        ("file", "file: needs a PATH")])
    def test_malformed_specs_rejected_at_build_naming_the_spec(self, spec, message):
        with pytest.raises(ValueError, match=re.escape(f"estimator spec {spec!r}: {message}")):
            build_estimator(spec, complete_graph(5))

    def test_validate_prob_vector_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            validate_prob_vector(np.array([0.1, 1.4]))
        with pytest.raises(ValueError):
            validate_prob_vector(np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            validate_prob_vector(np.array([0.5, 0.5]), 3)
        with pytest.raises(ValueError):
            validate_prob_vector(np.array([0.5, np.nan]))
