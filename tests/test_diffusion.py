"""Simulator laws, snapshot windows, and dataset generation."""

import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sourceset import diffusion
from sourceset.diffusion import (
    INFECTED,
    RECOVERED,
    SUSCEPTIBLE,
    GenerativeConfig,
    SirParams,
    auto_first_observation,
    load_dataset,
    observe,
    sample_dataset,
    save_dataset,
    simulate,
    simulate_batch,
)
from sourceset.graph import (
    barabasi_albert_graph,
    build_graph,
    complete_graph,
    erdos_renyi_graph,
    graph_from_spec,
    spectral_radius,
)
from sourceset.util import substream


def star_forest(n_stars, leaves):
    """Disjoint stars: center i at index i*(leaves+1), leaves after it."""
    edges = []
    for s in range(n_stars):
        center = s * (leaves + 1)
        edges += [(center, center + 1 + j) for j in range(leaves)]
    return build_graph(n_stars * (leaves + 1), edges), leaves + 1


def reference_status_strings(x):
    """Per-character status encoder: one string per snapshot column."""
    chars = np.array(list("SIR"))
    return ["".join(chars[x.statuses[:, j]]) for j in range(x.n_snapshots)]


def reference_simulate_batch(graph, sources, sigma_inf, sigma_rec, uniforms):
    """The simulator step that the flat arc table replaced: per-row neighbor
    counts updated by two CSR gathers per step, one for the nodes that turned
    infected and one for those that recovered."""
    rows, horizon, n = uniforms.shape
    width = int(graph.degrees.max(initial=0)) + 1
    table = np.zeros((rows, 3, width))
    table[:, SUSCEPTIBLE, 0] = 1.0
    table[:, SUSCEPTIBLE, 1:] = 1.0 - np.asarray(sigma_inf, dtype=np.float64)[..., None]
    np.cumprod(table[:, SUSCEPTIBLE], axis=1, out=table[:, SUSCEPTIBLE])
    np.subtract(1.0, table[:, SUSCEPTIBLE], out=table[:, SUSCEPTIBLE])
    table[:, INFECTED] = np.asarray(sigma_rec, dtype=np.float64)[..., None]
    table = table.ravel()
    status = np.where(sources, INFECTED, SUSCEPTIBLE).astype(np.int8)
    code = (np.arange(rows)[:, None] * 3 + status) * width
    flat_code = code.ravel()
    flat_status = status.ravel()

    def neighbors_of_many(nodes):
        counts = graph.degrees[nodes]
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=graph.indices.dtype)
        bases = np.repeat(graph.indptr[nodes]
                          - np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
        return graph.indices[bases + np.arange(total)]

    def add_neighbor_counts(flat_nodes, sign):
        if flat_nodes.size == 0:
            return
        nodes = flat_nodes % n
        targets = neighbors_of_many(nodes) \
            + np.repeat(flat_nodes - nodes, graph.degrees[nodes])
        np.add.at(flat_code, targets, sign)

    add_neighbor_counts(np.flatnonzero(sources), 1)
    out = np.empty((rows, horizon + 1, n), dtype=np.int8)
    out[:, 0] = status
    for t in range(horizon):
        moved = uniforms[:, t] < table[code]
        status += moved
        out[:, t + 1] = status
        changed = np.flatnonzero(moved)
        if changed.size:
            flat_code[changed] += width
            now = flat_status[changed]
            add_neighbor_counts(changed[now == INFECTED], 1)
            add_neighbor_counts(changed[now == RECOVERED], -1)
    return out


def three_sigma_band(p, trials):
    return 3.0 * np.sqrt(p * (1.0 - p) / trials)


class TestSirParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SirParams(sigma_inf=0.0, sigma_rec=0.1)
        with pytest.raises(ValueError):
            SirParams(sigma_inf=1.2, sigma_rec=0.1)
        with pytest.raises(ValueError):
            SirParams(sigma_inf=0.5, sigma_rec=1.0)

    def test_from_r0_derivation(self):
        p = SirParams.from_r0(r0=5.0, sigma_rec=0.2, lambda1=4.0)
        assert p.sigma_inf == pytest.approx(0.25)
        assert p.r0 == 5.0

    def test_from_r0_out_of_range(self):
        with pytest.raises(ValueError):
            SirParams.from_r0(r0=50.0, sigma_rec=0.5, lambda1=2.0)
        with pytest.raises(ValueError):
            SirParams.from_r0(r0=5.0, sigma_rec=0.0, lambda1=4.0)


class TestSimulate:
    def test_sources_infected_at_time_zero(self):
        g = complete_graph(6)
        traj = simulate(g, SirParams(0.3, 0.1, horizon=4), [1, 4], seed=0)
        start = traj.statuses[0]
        assert set(np.flatnonzero(start == INFECTED)) == {1, 4}
        assert np.all(start[[0, 2, 3, 5]] == SUSCEPTIBLE)

    def test_no_infected_neighbor_means_no_infection(self):
        # two components: infection cannot jump the gap
        g = build_graph(4, [(0, 1), (2, 3)])
        traj = simulate(g, SirParams(1.0, 0.0, horizon=6), [0], seed=3)
        assert np.all(traj.statuses[:, 2] == SUSCEPTIBLE)
        assert np.all(traj.statuses[:, 3] == SUSCEPTIBLE)

    def test_single_contact_infection_frequency(self):
        # one infected leaf per star: center catches it w.p. sigma_inf
        trials = 100_000
        for sigma in (0.1, 0.25):
            g, block = star_forest(trials, 1)
            sources = np.arange(trials) * block + 1
            traj = simulate(g, SirParams(sigma, 0.0, horizon=1), sources, seed=42)
            centers = np.arange(trials) * block
            freq = np.mean(traj.statuses[1, centers] == INFECTED)
            assert abs(freq - sigma) <= three_sigma_band(sigma, trials)

    def test_recovery_frequency(self):
        trials = 100_000
        sigma_rec = 0.3
        g = build_graph(trials, [])
        traj = simulate(g, SirParams(0.5, sigma_rec, horizon=1),
                        np.arange(trials), seed=9)
        freq = np.mean(traj.statuses[1] == RECOVERED)
        assert abs(freq - sigma_rec) <= three_sigma_band(sigma_rec, trials)

    def test_si_never_recovers(self):
        g = barabasi_albert_graph(30, 2, seed=1)
        for seed in range(50):
            traj = simulate(g, SirParams(0.4, 0.0, horizon=15), [seed % 30], seed=seed)
            assert not np.any(traj.statuses == RECOVERED)

    def test_statuses_monotone_per_node(self):
        g = barabasi_albert_graph(40, 2, seed=5)
        for seed in range(30):
            traj = simulate(g, SirParams(0.3, 0.2, horizon=12), [0, 7], seed=seed)
            diffs = np.diff(traj.statuses.astype(np.int16), axis=0)
            assert np.all(diffs >= 0)
            # S -> R in one step is illegal
            before = traj.statuses[:-1]
            after = traj.statuses[1:]
            assert not np.any((before == SUSCEPTIBLE) & (after == RECOVERED))

    def test_new_infections_have_infected_neighbor(self):
        g = barabasi_albert_graph(40, 2, seed=6)
        traj = simulate(g, SirParams(0.5, 0.1, horizon=10), [3], seed=11)
        for t in range(1, traj.horizon + 1):
            fresh = np.flatnonzero((traj.statuses[t] == INFECTED)
                                   & (traj.statuses[t - 1] == SUSCEPTIBLE))
            for v in fresh:
                assert np.any(traj.statuses[t - 1][g.neighbors(v)] == INFECTED)

    def test_deterministic_per_seed(self):
        g = barabasi_albert_graph(25, 2, seed=2)
        a = simulate(g, SirParams(0.3, 0.1, horizon=8), [1], seed=77)
        b = simulate(g, SirParams(0.3, 0.1, horizon=8), [1], seed=77)
        assert np.array_equal(a.statuses, b.statuses)

    def test_rejects_bad_sources(self):
        g = complete_graph(4)
        with pytest.raises(ValueError):
            simulate(g, SirParams(0.5, 0.0, horizon=2), [], seed=0)
        with pytest.raises(ValueError):
            simulate(g, SirParams(0.5, 0.0, horizon=2), [9], seed=0)


class TestSimulateBatch:
    def test_k_contact_law(self):
        # one row per trial on a single star: leaves 1..k start infected and
        # the susceptible center 0 catches it w.p. 1 - (1 - sigma)^k
        trials = 40_000
        sigma = 0.2
        for k in (2, 3, 5, 8):
            g = build_graph(k + 1, [(0, j) for j in range(1, k + 1)])
            start = np.zeros((trials, k + 1), dtype=bool)
            start[:, 1:] = True
            uniforms = substream(5, k).random((trials, 1, k + 1))
            statuses = simulate_batch(g, start, np.full(trials, sigma),
                                      np.zeros(trials), uniforms)
            freq = np.mean(statuses[:, 1, 0] == INFECTED)
            target = 1.0 - (1.0 - sigma) ** k
            assert abs(freq - target) <= three_sigma_band(target, trials)

    def test_rows_do_not_depend_on_their_batch(self):
        g = barabasi_albert_graph(30, 2, seed=4)
        cases = [(0.3, 0.1, [0], 6), (0.8, 0.0, [3, 9], 4), (0.05, 0.3, [1, 2, 3], 9),
                 (1.0, 0.5, [29], 2)]
        alone = [simulate(g, SirParams(si, sr, horizon=h), src, seed=substream(8, r))
                 for r, (si, sr, src, h) in enumerate(cases)]
        horizon = max(h for *_, h in cases)
        start = np.zeros((len(cases), g.n_nodes), dtype=bool)
        uniforms = np.ones((len(cases), horizon, g.n_nodes))
        for r, (_, _, src, h) in enumerate(cases):
            start[r, src] = True
            uniforms[r, :h] = substream(8, r).random((h, g.n_nodes))
        batch = simulate_batch(g, start, [c[0] for c in cases], [c[1] for c in cases],
                               uniforms)
        for r, (traj, (*_, h)) in enumerate(zip(alone, cases)):
            assert np.array_equal(batch[r, :h + 1], traj.statuses)
            # uniforms of 1.0 freeze the row after its own horizon
            assert np.all(batch[r, h:] == traj.statuses[-1])
        # reversed order, each row on its own
        for r in reversed(range(len(cases))):
            single = simulate_batch(g, start[r:r + 1], cases[r][0], cases[r][1],
                                    uniforms[r:r + 1])
            assert np.array_equal(single[0], batch[r])

    @pytest.mark.parametrize("graph", [
        barabasi_albert_graph(60, 2, seed=3),
        erdos_renyi_graph(40, 0.04, seed=5),
        complete_graph(12),
        build_graph(50, [(0, j) for j in range(1, 50)] + [(1, 2), (3, 4), (2, 49)])],
    # the ER graph has 4 isolated nodes; the star's hub has degree 49
        ids=["ba", "er-isolated", "complete", "star-hub"])
    @pytest.mark.parametrize("dynamics", ["sir", "si"])
    def test_bit_identical_to_reference_step(self, graph, dynamics):
        n, rows, horizon = graph.n_nodes, 40, 12
        rng = np.random.default_rng([2024, n, dynamics == "si"])
        start = np.zeros((rows, n), dtype=bool)
        for r in range(rows):
            start[r, rng.choice(n, size=int(rng.integers(1, 6)), replace=False)] = True
        start[0] = True  # every node a source
        sigma_inf = rng.uniform(0.05, 1.0, rows)
        sigma_rec = rng.uniform(0.05, 0.6, rows) if dynamics == "sir" else np.zeros(rows)
        uniforms = rng.random((rows, horizon, n))
        uniforms[1::2, horizon // 2:] = 1.0  # padded rows freeze mid-horizon
        want = reference_simulate_batch(graph, start, sigma_inf, sigma_rec, uniforms)
        assert np.any(want[:, -1] == INFECTED)
        if dynamics == "sir":
            assert np.any(want[:, -1] == RECOVERED)
        assert np.array_equal(simulate_batch(graph, start, sigma_inf, sigma_rec,
                                             uniforms), want)
        for r in range(rows):  # chunks of one row, with scalar rates
            got = simulate_batch(graph, start[r:r + 1], float(sigma_inf[r]),
                                 float(sigma_rec[r]), uniforms[r:r + 1])
            assert np.array_equal(got[0], want[r])

    def test_shape_checks(self):
        g = complete_graph(4)
        with pytest.raises(ValueError):
            simulate_batch(g, np.zeros((2, 4), dtype=bool), 0.5, 0.1,
                           np.ones((3, 2, 4)))
        with pytest.raises(ValueError):
            simulate_batch(g, np.zeros((2, 5), dtype=bool), 0.5, 0.1,
                           np.ones((2, 2, 5)))


class TestSimulateCascades:
    """The chunked cascade loop that simulate, sample_dataset and the Monte
    Carlo estimator share."""

    # ba:40,2 with windows ending at step 10 or earlier: a row's uniforms
    # outweigh its arc tables, so SIM_CHUNK_BYTES sets rows per chunk
    graph = barabasi_albert_graph(40, 2, seed=1)
    bound = 10

    def mixed(self):
        """23 cascades of 4 instants ending at steps 4 to 9, each on its own
        rng."""
        for i in range(23):
            rng = substream(3, i)
            sources = np.sort(rng.choice(40, size=1 + i % 3, replace=False))
            params = SirParams(sigma_inf=0.1 + 0.02 * i, sigma_rec=0.05 * (i % 4))
            yield sources, params, rng, 1 + i % 3 + (1 + i % 2) * np.arange(4)

    def shared(self):
        """20 single-source cascades on one rng, all observed at 2, 4, 6."""
        rng = substream(9)
        params = SirParams(sigma_inf=0.3, sigma_rec=0.1)
        for v in np.repeat([0, 5, 17, 33], 5):
            yield v, params, rng, np.array([2, 4, 6])

    def alone(self, cascades):
        """Each cascade as per-row `simulate` over its own window plus a
        gather, in row order."""
        return [simulate(self.graph, replace(params, horizon=int(times[-1])),
                         sources, rng).statuses[times]
                for sources, params, rng, times in cascades]

    @pytest.mark.parametrize("cascades", ["mixed", "shared"])
    @pytest.mark.parametrize("rows", [1, 7, None])
    def test_windows_equal_simulate_alone(self, monkeypatch, cascades, rows):
        make = getattr(self, cascades)
        want = self.alone(make())
        if rows is not None:
            monkeypatch.setattr(diffusion, "SIM_CHUNK_BYTES",
                                rows * 8 * self.graph.n_nodes * self.bound)
        chunks = list(diffusion.simulate_cascades(self.graph, self.bound, make()))
        sizes = [len(chunk) for chunk, _ in chunks]
        assert sizes[0] == (rows or len(want)) and sum(sizes) == len(want)
        got = [w for chunk, windows in chunks for w in windows]
        for a, b in zip(got, want):
            assert a.dtype == np.int8 and np.array_equal(a, b)

    def test_one_chunk_pulled_before_the_first_window(self, monkeypatch):
        monkeypatch.setattr(diffusion, "SIM_CHUNK_BYTES",
                            7 * 8 * self.graph.n_nodes * self.bound)
        pulled = []

        def counting():
            for cascade in self.mixed():
                pulled.append(cascade)
                yield cascade

        chunks = diffusion.simulate_cascades(self.graph, self.bound, counting())
        assert pulled == []
        chunk, windows = next(chunks)
        assert len(chunk) == len(pulled) == 7 and windows.shape == (7, 4, 40)
        next(chunks)
        assert len(pulled) == 14


class TestObserve:
    def test_single_snapshot_equals_trajectory_column(self):
        g = complete_graph(8)
        traj = simulate(g, SirParams(0.4, 0.1, horizon=5), [2], seed=1)
        x = observe(traj, t_first=1, n_snapshots=1)
        assert np.array_equal(x.statuses[:, 0], traj.statuses[1])
        assert x.times.tolist() == [1]

    def test_default_window_matches_protocol(self):
        g = complete_graph(5)
        traj = simulate(g, SirParams(0.4, 0.1, horizon=40), [0], seed=1)
        x = observe(traj, t_first=2)
        assert x.n_snapshots == 16
        assert x.times.tolist() == list(range(2, 18))

    def test_window_beyond_horizon_rejected(self):
        g = complete_graph(5)
        traj = simulate(g, SirParams(0.4, 0.1, horizon=10), [0], seed=1)
        with pytest.raises(ValueError):
            observe(traj, t_first=2, n_snapshots=16)
        with pytest.raises(ValueError):
            observe(traj, t_first=0, n_snapshots=1)

    def test_columns_monotone_over_many_trajectories(self):
        g = barabasi_albert_graph(30, 2, seed=3)
        for seed in range(1000):
            traj = simulate(g, SirParams(0.35, 0.25, horizon=9), [seed % 30],
                            seed=seed)
            x = observe(traj, t_first=1, n_snapshots=5, stride=2)
            assert np.all(np.diff(x.statuses.astype(np.int16), axis=1) >= 0)


class TestAutoFirstObservation:
    def test_rule(self):
        assert auto_first_observation(1, None) == 2
        assert auto_first_observation(1, 40.0) == 2
        assert auto_first_observation(5, 7.0) == 2
        assert auto_first_observation(5, 20.0) == 1
        assert auto_first_observation(5, None) == 1


class TestSampleDataset:
    def gen(self, **overrides):
        values = dict(source_count=(1, 5), r0=(1.0, 8.0), sigma_rec=(0.1, 0.4),
                      horizon=40, n_snapshots=6, stride=1)
        values.update(overrides)
        return GenerativeConfig(**values)

    def test_zero_samples(self):
        g = complete_graph(10)
        assert sample_dataset(g, self.gen(), 0, seed=1) == []

    def test_deterministic_rerun_byte_identical(self, tmp_path):
        g = barabasi_albert_graph(40, 2, seed=1)
        config = {"note": "determinism check"}
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(sample_dataset(g, self.gen(), 20, seed=5), p1, 5, config)
        save_dataset(sample_dataset(g, self.gen(), 20, seed=5), p2, 5, config)
        assert p1.read_bytes() == p2.read_bytes()

    def test_samples_respect_config(self):
        g = barabasi_albert_graph(40, 2, seed=1)
        samples = sample_dataset(g, self.gen(), 30, seed=7)
        for s in samples:
            assert 1 <= s.sources.size <= 5
            assert 0.1 <= s.params.sigma_rec <= 0.4
            assert 1.0 <= s.params.r0 <= 8.0
            assert s.x.n_snapshots == 6
            # r0 range sits inside [1, 15], so observation starts at 2
            assert s.x.times[0] == 2

    def test_t_first_rule_applied_per_sample(self):
        # dense graph so fast r0 values still give sigma_inf <= 1
        g = complete_graph(40)
        fast = self.gen(r0=(20.0, 25.0), source_count=(3, 5))
        for s in sample_dataset(g, fast, 10, seed=3):
            assert s.x.times[0] == 1
        single = self.gen(r0=(20.0, 25.0), source_count=1)
        for s in sample_dataset(g, single, 10, seed=3):
            assert s.x.times[0] == 2

    def test_derived_sigma_inf_out_of_range_is_parameter_error(self):
        g = barabasi_albert_graph(40, 2, seed=1)
        with pytest.raises(ValueError, match="sigma_inf"):
            sample_dataset(g, self.gen(r0=(25.0, 25.0)), 10, seed=3)

    @pytest.mark.parametrize("edges, sigma_rec, message", [
        ([], 0.2, "requires a positive spectral radius"),
        ([], 0.0, "requires sigma_rec > 0"),
        ([(0, 1), (1, 2)], 0.0, "requires sigma_rec > 0")])
    def test_r0_config_refused_with_from_r0_error(self, edges, sigma_rec, message):
        g = build_graph(5, edges)
        with pytest.raises(ValueError, match=message):
            sample_dataset(g, self.gen(r0=2.0, sigma_rec=sigma_rec, source_count=1),
                           3, seed=1)

    def test_r0_range_too_fast_rejected_before_first_sample(self, monkeypatch):
        # lambda1 ~ 10.74, so r0 = 40 at sigma_rec = 0.4 derives sigma_inf ~ 1.49
        g = barabasi_albert_graph(200, 3, seed=0)
        lambda1 = spectral_radius(g)

        def no_draws(*args):
            raise AssertionError("a sample was drawn before the range check")

        monkeypatch.setattr(diffusion, "substream", no_draws)
        gen = self.gen(r0=(1.0, 40.0), sigma_rec=(0.1, 0.4))
        with pytest.raises(ValueError, match="sigma_inf") as info:
            sample_dataset(g, gen, 10, seed=3, lambda1=lambda1)
        assert f"{40.0 * 0.4 / lambda1:.6g}" in str(info.value)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_chunk_size_changes_no_sample(self, monkeypatch, stride):
        g = barabasi_albert_graph(40, 2, seed=1)
        gen = self.gen(source_count=(1, 8), stride=stride)
        default = sample_dataset(g, gen, 23, seed=6)
        # uniform bytes of one row: the window ends at t_first = 2 at most
        row_bytes = 8 * g.n_nodes * (2 + (gen.n_snapshots - 1) * gen.stride)
        for rows in (1, 7):
            monkeypatch.setattr(diffusion, "SIM_CHUNK_BYTES", rows * row_bytes)
            chunked = sample_dataset(g, gen, 23, seed=6)
            for a, b in zip(default, chunked, strict=True):
                assert a.index == b.index
                assert np.array_equal(a.sources, b.sources)
                assert a.params == b.params
                assert np.array_equal(a.x.times, b.x.times)
                assert np.array_equal(a.x.statuses, b.x.statuses)

    def test_dense_graph_chunk_counts_its_arc_tables(self):
        # complete:120 has 14,280 arcs and windows of 2 steps, so the arc
        # tables of a row outweigh its uniforms 60 times over. A chunk sized
        # by uniforms alone holds all 100 rows and traces 23 MB; counting the
        # arcs, the peak is the chunk's arc table and a scatter's two
        # arc-length temporaries, about 3 budgets
        g = complete_graph(120)
        gen = self.gen(source_count=1, r0=None, sigma_inf=0.05, n_snapshots=2,
                       t_first=1)
        assert diffusion.sim_chunk_rows(g, 2) == diffusion.SIM_CHUNK_BYTES // (
            8 * (g.indices.size + 2 * g.n_nodes))
        tracemalloc.start()
        try:
            sample_dataset(g, gen, 100, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * diffusion.SIM_CHUNK_BYTES

    @pytest.mark.parametrize("spec", ["ba:200,3", "ba:774,3"])
    def test_benchmark_graphs_keep_uniform_sized_chunks(self, spec):
        # the desk window ends at step 17, where a row's uniforms outweigh
        # its arc tables on these graphs
        g = graph_from_spec(spec)
        assert diffusion.sim_chunk_rows(g, 17) == \
            diffusion.SIM_CHUNK_BYTES // (8 * g.n_nodes * 17)

    @pytest.mark.parametrize("stride", [1, 3])
    def test_sample_equals_simulate_on_its_substream(self, stride):
        # the documented draw order: source count, sigma_rec, r0, sources,
        # then the uniform block that simulate draws
        g = barabasi_albert_graph(40, 2, seed=1)
        lambda1 = spectral_radius(g)
        gen = self.gen(source_count=(1, 5), r0=(1.0, 8.0), sigma_rec=(0.1, 0.4),
                       stride=stride)
        samples = sample_dataset(g, gen, 12, seed=5, lambda1=lambda1,
                                 seed_path=(0, 3))
        for s in samples:
            rng = substream(5, 0, 3, s.index)
            k = int(rng.integers(1, 6))
            sigma_rec = float(rng.uniform(0.1, 0.4))
            r0 = float(rng.uniform(1.0, 8.0))
            sources = np.sort(rng.choice(g.n_nodes, size=k, replace=False))
            assert np.array_equal(sources, s.sources)
            assert (s.params.sigma_rec, s.params.r0) == (sigma_rec, r0)
            assert s.params.sigma_inf == r0 * sigma_rec / lambda1
            traj = simulate(g, s.params, sources, rng)
            x = observe(traj, int(s.x.times[0]), gen.n_snapshots, gen.stride)
            assert np.array_equal(x.statuses, s.x.statuses)

    def test_si_mode_with_fixed_sigma_inf(self):
        g = barabasi_albert_graph(40, 2, seed=1)
        gen = self.gen(r0=None, sigma_inf=0.25, sigma_rec=0.0)
        samples = sample_dataset(g, gen, 10, seed=2)
        for s in samples:
            assert s.params.sigma_inf == 0.25
            assert s.params.r0 is None
            assert not np.any(s.x.statuses == RECOVERED)

    def test_source_count_exceeding_nodes_rejected(self):
        g = complete_graph(4)
        with pytest.raises(ValueError):
            sample_dataset(g, self.gen(source_count=(1, 10)), 5, seed=1)

    def test_roundtrip_through_file(self, tmp_path):
        g = barabasi_albert_graph(30, 2, seed=1)
        samples = sample_dataset(g, self.gen(), 12, seed=9)
        path = tmp_path / "data.jsonl"
        save_dataset(samples, path, 9, {"graph_spec": "ba:30,2"})
        loaded, header = load_dataset(path)
        assert header["config"]["graph_spec"] == "ba:30,2"
        assert len(loaded) == len(samples)
        for a, b in zip(samples, loaded):
            assert a.index == b.index
            assert np.array_equal(a.sources, b.sources)
            assert np.array_equal(a.x.statuses, b.x.statuses)
            assert np.array_equal(a.x.times, b.x.times)
            assert a.params.sigma_inf == b.params.sigma_inf
            assert a.params.sigma_rec == b.params.sigma_rec

    def test_config_requires_exactly_one_rate_spec(self):
        with pytest.raises(ValueError):
            GenerativeConfig(r0=None, sigma_inf=None)
        with pytest.raises(ValueError):
            GenerativeConfig(r0=(1, 2), sigma_inf=(0.1, 0.2))


class TestGenerativeConfigFields:
    @pytest.mark.parametrize("field, value, message", [
        ("n_snapshots", 2.5, "n_snapshots must be an integer, got 2.5"),
        ("stride", 1.5, "stride must be an integer, got 1.5"),
        ("horizon", 10.5, "horizon must be an integer, got 10.5"),
        ("horizon", True, "horizon must be an integer, got True"),
        ("t_first", 2.5, "t_first must be an integer or 'auto', got 2.5"),
        ("t_first", "late", "t_first must be an integer or 'auto', got 'late'"),
        ("r0", "5", "r0 must be a finite number or a [low, high] pair"),
        ("r0", (1, "x"), "r0 must be a finite number or a [low, high] pair"),
        ("r0", (1, 2, 3), "r0 must be a finite number or a [low, high] pair"),
        ("r0", (1.0, math.inf), "r0 must be a finite number"),
        ("r0", math.nan, "r0 must be a finite number"),
        ("r0", (1, 10**400), "r0 must be a finite number"),
        ("sigma_rec", True, "sigma_rec must be a finite number"),
        ("sigma_rec", None, "sigma_rec must be a finite number"),
        ("sigma_rec", (0.4, 0.1), "sigma_rec range (0.4, 0.1) has low > high"),
        ("source_count", (1.5, 3), "source_count must be a whole number"),
        ("source_count", 2.5, "source_count must be a whole number"),
        ("source_count", (4, 2), "source_count range (4, 2) has low > high")])
    def test_bad_field_refused_naming_it(self, field, value, message):
        with pytest.raises(ValueError) as info:
            GenerativeConfig(**{field: value})
        assert message in str(info.value)

    def test_bad_range_refused_before_any_draw(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("a sample was drawn before the range check")

        monkeypatch.setattr(diffusion, "substream", no_draws)
        with pytest.raises(ValueError, match="sigma_rec range"):
            sample_dataset(complete_graph(12),
                           GenerativeConfig(sigma_rec=[0.4, 0.1]), 0, seed=1)

    @pytest.mark.parametrize("values", [
        dict(), dict(source_count=2.0), dict(source_count=[2.0, 3]),
        dict(r0=5, sigma_rec=[0.1, 0.1]), dict(r0=None, sigma_inf=[0.1, 0.3]),
        dict(t_first=3, horizon=20, n_snapshots=4, stride=2)])
    def test_valid_config_keeps_its_values(self, values):
        gen = GenerativeConfig(**values)
        defaults = GenerativeConfig().to_dict()
        assert gen.to_dict() == {**defaults, **values}
        for name, value in gen.to_dict().items():
            assert type(value) is type({**defaults, **values}[name])

    def test_whole_float_source_count_draws_as_int(self):
        g = complete_graph(12)
        base = dict(r0=None, sigma_inf=0.2, sigma_rec=0.1, n_snapshots=3)
        floats = sample_dataset(g, GenerativeConfig(source_count=(2.0, 4.0), **base),
                                8, seed=5)
        ints = sample_dataset(g, GenerativeConfig(source_count=(2, 4), **base), 8, seed=5)
        for a, b in zip(floats, ints, strict=True):
            assert np.array_equal(a.sources, b.sources)
            assert np.array_equal(a.x.statuses, b.x.statuses)

    def test_window_no_start_fits_refused_before_any_draw(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("a sample was drawn before the window check")

        monkeypatch.setattr(diffusion, "substream", no_draws)
        # a single source starts "auto" at 2, so its window ends at 17
        for t_first, horizon, end in ((3, 16, 18), ("auto", 15, 17)):
            gen = GenerativeConfig(source_count=1, t_first=t_first, horizon=horizon)
            with pytest.raises(ValueError, match=f"window ends at {end} but "
                                                 f"horizon is {horizon}"):
                sample_dataset(complete_graph(12), gen, 0, seed=1)

    def test_auto_window_only_the_early_start_fits(self):
        # SI with two or more sources always starts at 1, ending on the horizon
        g = complete_graph(12)
        gen = GenerativeConfig(source_count=(2, 4), r0=None, sigma_inf=0.2,
                               sigma_rec=0.0, horizon=16)
        samples = sample_dataset(g, gen, 6, seed=2)
        assert all(s.x.times.tolist() == list(range(1, 17)) for s in samples)
        with pytest.raises(ValueError, match="window ends at 17 but horizon is 16"):
            sample_dataset(g, replace(gen, source_count=1), 6, seed=2)

    # complete:12 has lambda1 = 11; the default window is 16 instants long
    @pytest.mark.parametrize("values, latest", [
        # a single source starts at 2 whatever its rates
        (dict(source_count=(1, 4), r0=None, sigma_inf=0.2, sigma_rec=0.1), 2),
        # r0 = 0.2 * 11 / 0.1 = 22, or no r0 at all, keeps 2+ sources fast
        (dict(source_count=(2, 4), r0=None, sigma_inf=0.2, sigma_rec=0.1), 1),
        (dict(source_count=(2, 4), r0=None, sigma_inf=0.2, sigma_rec=0.0), 1),
        # r0 in [11, 33] meets [1, 15]
        (dict(source_count=(2, 4), r0=None, sigma_inf=(0.2, 0.3),
              sigma_rec=(0.1, 0.2)), 2),
        # r0 in [22, inf) misses it, r0 in [11, inf) meets it
        (dict(source_count=(2, 4), r0=None, sigma_inf=0.2, sigma_rec=(0.0, 0.1)), 1),
        (dict(source_count=(2, 4), r0=None, sigma_inf=0.2, sigma_rec=(0.0, 0.2)), 2),
        (dict(source_count=(2, 4), r0=(16.0, 20.0), sigma_rec=0.1), 1),
        (dict(source_count=(2, 4), r0=(10.0, 20.0), sigma_rec=0.1), 2)])
    def test_auto_window_of_the_latest_reachable_start(self, monkeypatch, values,
                                                       latest):
        g = complete_graph(12)
        # the latest start is reached, and no sample starts later
        starts = {int(s.x.times[0])
                  for s in sample_dataset(g, GenerativeConfig(**values), 100, seed=4)}
        assert max(starts) == latest
        gen = GenerativeConfig(horizon=16, **values)
        if latest == 1:
            assert all(s.x.times[-1] == 16 for s in sample_dataset(g, gen, 20, seed=4))
            return

        def no_draws(*args):
            raise AssertionError("a sample was drawn before the window check")

        monkeypatch.setattr(diffusion, "substream", no_draws)
        for n_samples in (0, 2, 40):
            with pytest.raises(ValueError, match="window ends at 17 but horizon is 16"):
                sample_dataset(g, gen, n_samples, seed=1)

    def test_needs_lambda1(self):
        assert GenerativeConfig().needs_lambda1
        assert GenerativeConfig(r0=None, sigma_inf=0.2).needs_lambda1
        assert GenerativeConfig(r0=2.0, t_first=1).needs_lambda1
        assert not GenerativeConfig(r0=None, sigma_inf=0.2, t_first=1).needs_lambda1


# a record field that the test deletes instead of setting
MISSING = object()


class TestDatasetCodec:
    def write_reference(self, samples, path, seed, config, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(diffusion, "_status_strings", reference_status_strings)
            save_dataset(samples, path, seed, config)

    def test_files_byte_identical_to_per_character_encoder(self, tmp_path,
                                                            monkeypatch):
        g = barabasi_albert_graph(60, 2, seed=3)
        gen = GenerativeConfig(source_count=(1, 6), r0=(1.0, 8.0),
                               sigma_rec=(0.1, 0.4), n_snapshots=7, stride=2)
        samples = sample_dataset(g, gen, 40, seed=2)
        assert any(np.any(s.x.statuses == RECOVERED) for s in samples)
        config = {"graph_spec": "ba:60,2"}
        save_dataset(samples, tmp_path / "new.jsonl", 2, config)
        self.write_reference(samples, tmp_path / "ref.jsonl", 2, config, monkeypatch)
        assert (tmp_path / "new.jsonl").read_bytes() == \
            (tmp_path / "ref.jsonl").read_bytes()

    def test_lines_are_json_dumps_of_the_documented_record(self, tmp_path):
        g = barabasi_albert_graph(320, 3, seed=4)
        gen = GenerativeConfig(source_count=(1, 8), r0=(1.0, 10.0),
                               sigma_rec=(0.1, 0.4), n_snapshots=9)
        samples = sample_dataset(g, gen, 30, seed=6)
        samples += sample_dataset(g, GenerativeConfig(
            source_count=2, r0=None, sigma_inf=0.2, sigma_rec=0.0), 5, seed=7)
        assert any(np.any(s.x.statuses == RECOVERED) for s in samples)
        assert any(s.params.r0 is None for s in samples)
        path = tmp_path / "d.jsonl"
        save_dataset(samples, path, 6, {"graph_spec": "ba:320,3"})
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert len(lines) == 1 + len(samples)
        for line, s in zip(lines[1:], samples, strict=True):
            rec = {"record": "sample", "index": s.index, "times": s.x.times.tolist(),
                   "status": reference_status_strings(s.x),
                   "sources": s.sources.tolist(), "sigma_inf": s.params.sigma_inf,
                   "sigma_rec": s.params.sigma_rec, "r0": s.params.r0,
                   "horizon": s.params.horizon}
            assert line == json.dumps(rec) + "\n"

    def test_load_gives_writable_int8_arrays_equal_to_the_saved(self, tmp_path):
        g = barabasi_albert_graph(320, 3, seed=4)
        samples = sample_dataset(g, GenerativeConfig(n_snapshots=5, stride=2), 12, seed=3)
        path = tmp_path / "d.jsonl"
        save_dataset(samples, path, 3, {})
        loaded, _ = load_dataset(path)
        for s, got in zip(samples, loaded, strict=True):
            statuses = got.x.statuses
            assert statuses.dtype == np.int8
            assert statuses.shape == (g.n_nodes, 5)
            assert statuses.flags.writeable
            assert np.array_equal(statuses, s.x.statuses)
            statuses[0, 0] = RECOVERED  # writes go through

    def edit_sample(self, path, sample_line, edit):
        lines = path.read_text().splitlines()
        rec = json.loads(lines[sample_line])
        edit(rec)
        lines[sample_line] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        return rec["index"]

    def dataset(self, tmp_path):
        path = tmp_path / "d.jsonl"
        samples = sample_dataset(complete_graph(12), GenerativeConfig(
            source_count=1, r0=None, sigma_inf=0.3, sigma_rec=0.2, n_snapshots=3),
            4, seed=1)
        save_dataset(samples, path, 1, {})
        return path

    @pytest.mark.parametrize("bad", ["X", "s", "\u00e9", "0"])
    def test_character_outside_alphabet_names_the_sample(self, tmp_path, bad):
        path = self.dataset(tmp_path)

        def put(rec):
            rec["status"][2] = rec["status"][2][:5] + bad + rec["status"][2][6:]

        index = self.edit_sample(path, 3, put)
        with pytest.raises(ValueError) as info:
            load_dataset(path)
        assert str(info.value) == \
            f"{path}: sample {index}: status character {bad!r} outside 'SIR'"

    def test_unequal_string_lengths_name_the_sample(self, tmp_path):
        path = self.dataset(tmp_path)
        index = self.edit_sample(path, 2, lambda rec: rec["status"].__setitem__(
            0, rec["status"][0] + "S"))
        with pytest.raises(ValueError, match=f"sample {index}: .*unequal length"):
            load_dataset(path)

    def test_string_count_must_match_times(self, tmp_path):
        path = self.dataset(tmp_path)
        index = self.edit_sample(path, 4, lambda rec: rec["status"].pop())
        with pytest.raises(ValueError, match=f"sample {index}: 2 status strings"):
            load_dataset(path)

    @pytest.mark.parametrize("times", [[1, 3, 3], [3, 2, 4], [2, 1, 0]])
    def test_observation_times_must_increase(self, tmp_path, times):
        path = self.dataset(tmp_path)
        index = self.edit_sample(path, 2, lambda rec: rec.__setitem__("times", times))
        with pytest.raises(ValueError, match=f"sample {index}: .*strictly increasing"):
            load_dataset(path)

    @pytest.mark.parametrize("field, bad, message", [
        ("status", None, "status must be a list of strings"),
        ("status", "SSSSSSSSSSSS", "status must be a list of strings"),
        ("status", [1, 2, 3], "status must be a list of strings"),
        ("sources", None, "sources must be a non-empty list of integer node ids"),
        ("sources", [], "sources must be a non-empty list of integer node ids"),
        ("sources", [[1, 2]], "sources must be a non-empty list of integer node ids"),
        ("sources", [1.0], "sources must be a non-empty list of integer node ids"),
        ("sources", [True], "sources must be a non-empty list of integer node ids"),
        ("sources", [3, 5, 3], "repeated source node"),
        ("sources", [12], "source 12 out of range for 12 nodes"),
        ("sources", [0, -1], "source -1 out of range for 12 nodes"),
        ("times", None, "times must be a non-empty list of integers"),
        ("times", [], "times must be a non-empty list of integers"),
        ("times", ["a"], "times must be a non-empty list of integers"),
        ("times", [0.5, 1.5, 2.5], "times must be a non-empty list of integers"),
        ("times", [[1, 2, 3]], "times must be a non-empty list of integers"),
        ("times", [True, 2, 3], "times must be a non-empty list of integers"),
        ("sigma_inf", True, "sigma_inf must be a number"),
        ("sigma_inf", "0.1", "sigma_inf must be a number"),
        ("sigma_rec", None, "sigma_rec must be a number"),
        ("horizon", 39.5, "horizon must be an integer"),
        ("horizon", "x", "horizon must be an integer"),
        ("horizon", True, "horizon must be an integer"),
        ("r0", "2", "r0 must be a number or null"),
        ("r0", False, "r0 must be a number or null"),
        ("times", MISSING, "times must be a non-empty list of integers"),
        ("sigma_inf", MISSING, "sigma_inf must be a number"),
        ("horizon", MISSING, "horizon must be an integer"),
        ("times", [0, 1, 2], "times must lie in [1, horizon]"),
        ("times", [-5, 1, 2], "times must lie in [1, horizon]"),
        ("times", [1, 2, 1000], "times must lie in [1, horizon]"),
        ("times", [1, 2, 2**70], "times must lie in [1, horizon]"),
        ("horizon", 2**63, f"horizon must be < 2**63, got {2**63}"),
        ("horizon", 2**70, f"horizon must be < 2**63, got {2**70}"),
        ("r0", float("nan"), "r0 must be null or a finite number > 0, got nan"),
        ("r0", float("inf"), "r0 must be null or a finite number > 0, got inf"),
        ("r0", 0, "r0 must be null or a finite number > 0, got 0"),
        ("r0", -1.5, "r0 must be null or a finite number > 0, got -1.5")])
    def test_bad_status_or_sources_names_the_sample(self, tmp_path, field, bad, message):
        path = self.dataset(tmp_path)

        def put(rec):
            if bad is MISSING:
                del rec[field]
            else:
                rec[field] = bad

        index = self.edit_sample(path, 2, put)
        with pytest.raises(ValueError) as info:
            load_dataset(path)
        assert str(info.value) == f"{path}: sample {index}: {message}"

    def test_rate_out_of_range_names_the_sample(self, tmp_path):
        path = self.dataset(tmp_path)
        index = self.edit_sample(path, 3, lambda rec: rec.__setitem__("sigma_rec", 1.5))
        with pytest.raises(ValueError, match=f"sample {index}: sigma_rec must be"):
            load_dataset(path)

    @pytest.mark.parametrize("bad", ["1", 1.5, -1, True, None, [1]])
    def test_sample_index_must_be_a_non_negative_integer(self, tmp_path, bad):
        path = self.dataset(tmp_path)
        self.edit_sample(path, 2, lambda rec: rec.__setitem__("index", bad))
        with pytest.raises(ValueError) as info:
            load_dataset(path)
        assert str(info.value) == \
            f"{path}: sample index {bad!r} is not a non-negative integer"

    def test_repeated_sample_index_names_file_and_index(self, tmp_path):
        path = self.dataset(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines + lines[2:3]))
        index = json.loads(lines[2])["index"]
        with pytest.raises(ValueError) as info:
            load_dataset(path)
        assert str(info.value) == f"{path}: duplicate record for sample {index}"
