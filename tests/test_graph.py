"""Graph construction, edge-list ingestion, generators, spectral radius."""

import logging

import numpy as np
import pytest

import sourceset.graph as graph_module
from sourceset.graph import (
    Graph,
    GraphFormatError,
    SpectralRadiusError,
    barabasi_albert_graph,
    build_graph,
    complete_graph,
    erdos_renyi_graph,
    graph_from_spec,
    load_edge_list,
    read_edge_file,
    save_edge_list,
    spectral_radius,
)


def cycle_graph(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def reference_build_graph(n_nodes, edges):
    """The per-edge loop builder that build_graph's array code replaced."""
    if n_nodes < 0:
        raise ValueError("n_nodes must be non-negative")
    pairs = {(min(u, v), max(u, v)) for u, v in edges}
    for u, v in pairs:
        if u == v:
            raise ValueError(f"self-loop at node {u}")
        if not (0 <= u < n_nodes and 0 <= v < n_nodes):
            raise ValueError(f"edge ({u}, {v}) out of range for n_nodes={n_nodes}")
    counts = np.zeros(n_nodes, dtype=np.int64)
    for u, v in pairs:
        counts[u] += 1
        counts[v] += 1
    indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int64)
    cursor = indptr[:-1].copy()
    for u, v in pairs:
        indices[cursor[u]] = v
        cursor[u] += 1
        indices[cursor[v]] = u
        cursor[v] += 1
    for v in range(n_nodes):
        indices[indptr[v]:indptr[v + 1]].sort()
    return Graph(n_nodes=n_nodes, indptr=indptr, indices=indices)


def assert_same_csr(got, want):
    assert got.n_nodes == want.n_nodes
    for name in ("indptr", "indices"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


# every generator spec and seed the test suite builds
GENERATOR_SPECS = (
    [(f"complete:{n}", 0) for n in (2, 3, 4, 5, 6, 8, 10, 12, 20, 30, 40, 50)]
    + [("er:30,0.2", 9), ("er:30,0.2", 10), ("er:50,1.0", 7), ("er:40,0.2", 12),
       ("er:40,0.15", 5), ("er:10,0.5", 1)]
    + [("er:50,0.1", seed) for seed in range(5)]
    + [(f"ba:{n},{m}", seed) for n, m, seed in (
        (20, 2, 1), (25, 2, 2), (25, 2, 7), (25, 2, 9), (30, 2, 1), (30, 2, 3),
        (30, 2, 4), (30, 2, 5), (40, 2, 0), (40, 2, 1), (40, 2, 4), (40, 2, 5),
        (40, 2, 6), (50, 1, 1), (50, 2, 7), (60, 2, 3), (60, 2, 4), (60, 3, 0),
        (60, 3, 8), (80, 3, 1), (100, 2, 3), (100, 3, 0), (100, 3, 1),
        (200, 3, 0), (300, 4, 0), (774, 10, 3))]
)


class TestBuildGraph:
    def test_adjacency_symmetric_and_sorted(self):
        g = build_graph(4, [(2, 0), (0, 1), (3, 1)])
        assert g.n_edges == 3
        assert g.edge_set() == {(0, 1), (0, 2), (1, 3)}
        for v in range(4):
            nbrs = g.neighbors(v)
            assert np.all(np.diff(nbrs) > 0)
            for u in nbrs:
                assert v in g.neighbors(u)
        g.validate()

    def test_edge_count_is_half_adjacency_mass(self):
        g = build_graph(6, [(0, 1), (1, 2), (2, 3), (4, 5), (0, 5)])
        assert 2 * g.n_edges == int(g.degrees.sum())

    def test_rejects_self_loop_and_out_of_range(self):
        with pytest.raises(ValueError):
            build_graph(3, [(1, 1)])
        with pytest.raises(ValueError):
            build_graph(3, [(0, 3)])

    def test_isolated_nodes_allowed(self):
        g = build_graph(5, [(0, 1)])
        assert g.degrees.tolist() == [1, 1, 0, 0, 0]

    def test_empty_graphs(self):
        for n in (0, 3):
            for edges in ([], np.empty((0, 2), dtype=np.int64)):
                g = build_graph(n, edges)
                assert_same_csr(g, reference_build_graph(n, []))
                g.validate()

    @pytest.mark.parametrize("spec,seed", GENERATOR_SPECS)
    def test_generators_match_reference_builder(self, spec, seed, monkeypatch):
        got = graph_from_spec(spec, seed=seed)
        monkeypatch.setattr(graph_module, "build_graph", reference_build_graph)
        assert_same_csr(got, graph_from_spec(spec, seed=seed))
        got.validate()

    def test_random_edge_lists_match_reference_builder(self):
        # duplicates in both orientations; pairs given as an array and as tuples
        rng = np.random.default_rng(20240915)
        for _ in range(100):
            n = int(rng.integers(2, 60))
            pairs = rng.integers(0, n, size=(int(rng.integers(0, 4 * n)), 2))
            pairs = pairs[pairs[:, 0] != pairs[:, 1]]
            pairs = np.concatenate((pairs, pairs[: pairs.shape[0] // 3, ::-1]))
            want = reference_build_graph(n, pairs.tolist())
            assert_same_csr(build_graph(n, pairs), want)
            assert_same_csr(build_graph(n, map(tuple, pairs.tolist())), want)


class TestValidate:
    @staticmethod
    def graph(n, indptr, indices):
        return Graph(n, np.asarray(indptr, dtype=np.int64),
                     np.asarray(indices, dtype=np.int64))

    @pytest.mark.parametrize("indptr,indices,message", [
        ([0, 1, 2], [1, 0], "indptr length mismatch"),
        ([0, 2, 1, 2], [1, 2], "non-decreasing"),
        ([0, 1, 2, 3], [1, 0], "indices length mismatch"),
        ([0, 1, 2, 2], [1, 3], "out of range"),
        ([0, 2, 3, 4], [2, 1, 0, 0], "neighbor list of 0 not strictly ascending"),
        ([0, 2, 3, 3], [1, 1, 0], "neighbor list of 0 not strictly ascending"),
        ([0, 1, 2, 3], [1, 0, 2], "self-loop at 2"),
        ([0, 1, 2, 3], [1, 2, 1], "adjacency not symmetric"),
    ])
    def test_rejects_each_broken_invariant(self, indptr, indices, message):
        with pytest.raises(ValueError, match=message):
            self.graph(3, indptr, indices).validate()

    def test_accepts_valid_graphs(self):
        self.graph(3, [0, 1, 3, 4], [1, 0, 2, 1]).validate()
        self.graph(0, [0], []).validate()


class TestEdgeListFiles:
    def test_basic_load(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("0 1\n1 2\n")
        g = load_edge_list(path)
        assert g.n_nodes == 3
        assert g.edge_set() == {(0, 1), (1, 2)}

    def test_dedup_and_self_loop_dropped_with_count(self, tmp_path, caplog):
        path = tmp_path / "g.edges"
        path.write_text("0 1\n1 0\n2 2\n")
        declared, rows = read_edge_file(path)
        assert declared is None
        assert rows.dtype == np.int64
        assert rows.tolist() == [[0, 1], [1, 0], [2, 2]]
        with caplog.at_level(logging.INFO, logger="sourceset.graph"):
            g = load_edge_list(path)
        assert g.n_nodes == 3
        assert g.edge_set() == {(0, 1)}
        assert f"{path}: dropped 2 duplicate/self-loop line(s)" in caplog.messages

    def test_self_loop_line_counts_toward_node_count(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("0 1\n5 5\n")
        g = load_edge_list(path)
        assert g.n_nodes == 6
        assert g.edge_set() == {(0, 1)}

    def test_remap_ignores_self_loop_ids(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("100 200\n7 7\n")
        g = load_edge_list(path, remap=True)
        assert g.n_nodes == 2
        assert g.edge_set() == {(0, 1)}
        assert (tmp_path / "g.edges.idmap").read_text() == \
            "# original_id dense_id\n100 0\n200 1\n"

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("0 1\nfoo bar\n")
        with pytest.raises(GraphFormatError, match=":2:"):
            load_edge_list(path)

    def test_wrong_token_count_rejected(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("0 1 2\n")
        with pytest.raises(GraphFormatError):
            load_edge_list(path)

    def test_index_beyond_int64_rejected(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text(f"0 {2 ** 63}\n")
        with pytest.raises(GraphFormatError, match="too large"):
            load_edge_list(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# just a comment\n")
        with pytest.raises(GraphFormatError, match="empty"):
            load_edge_list(path)

    def test_header_directive_sets_node_count(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# nodes: 10\n0 1\n")
        assert load_edge_list(path).n_nodes == 10

    def test_roundtrip_preserves_edge_set(self, tmp_path):
        g = erdos_renyi_graph(40, 0.15, seed=5)
        path = tmp_path / "g.edges"
        save_edge_list(g, path)
        g2 = load_edge_list(path)
        assert g2.n_nodes == g.n_nodes
        assert g2.edge_set() == g.edge_set()

    def test_remap_writes_idmap_sidecar(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("100 200\n200 305\n")
        g = load_edge_list(path, remap=True)
        assert g.n_nodes == 3
        assert g.edge_set() == {(0, 1), (1, 2)}
        sidecar = tmp_path / "g.edges.idmap"
        rows = [line.split() for line in sidecar.read_text().splitlines()
                if not line.startswith("#")]
        assert rows == [["100", "0"], ["200", "1"], ["305", "2"]]

    def test_large_file_round_trip_matches_reference_builder(self, tmp_path):
        rng = np.random.default_rng(7)
        pairs = rng.integers(0, 20_000, size=(100_000, 2))
        pairs[::50, 1] = pairs[::50, 0]  # self-loop lines
        pairs[1::7] = pairs[:-1:7, ::-1]  # duplicates in reverse orientation
        path = tmp_path / "big.edges"
        path.write_text("".join(f"{u} {v}\n" for u, v in pairs.tolist()))
        g = load_edge_list(path)
        kept = pairs[pairs[:, 0] != pairs[:, 1]]
        assert_same_csr(g, reference_build_graph(int(pairs.max()) + 1, kept.tolist()))
        out = tmp_path / "out.edges"
        save_edge_list(g, out)
        assert out.read_text() == f"# nodes: {g.n_nodes}\n" + "".join(
            f"{u} {v}\n" for u, v in sorted(g.edge_set()))
        assert_same_csr(load_edge_list(out), g)

    def test_contact_network_scale(self, tmp_path):
        # same size as the largest contact network used in the evaluation
        g = barabasi_albert_graph(774, 10, seed=3)
        path = tmp_path / "big.edges"
        save_edge_list(g, path)
        loaded = load_edge_list(path)
        assert loaded.n_nodes == 774
        assert loaded.n_edges == g.n_edges


class TestGenerators:
    def test_complete_graph_structure(self):
        g = complete_graph(4)
        assert g.n_edges == 6
        assert np.all(g.degrees == 3)

    def test_er_p1_equals_complete(self):
        g = erdos_renyi_graph(50, 1.0, seed=7)
        assert g.edge_set() == complete_graph(50).edge_set()

    def test_er_deterministic_per_seed(self):
        a = erdos_renyi_graph(30, 0.2, seed=9)
        b = erdos_renyi_graph(30, 0.2, seed=9)
        c = erdos_renyi_graph(30, 0.2, seed=10)
        assert a.edge_set() == b.edge_set()
        assert a.edge_set() != c.edge_set()

    def test_ba_edge_count_formula(self):
        # m*(n-m) new-node edges plus the seed clique
        g = barabasi_albert_graph(100, 3, seed=1)
        assert g.n_edges == 3 * (100 - 3) + 3
        g = barabasi_albert_graph(50, 1, seed=1)
        assert g.n_edges == 49

    def test_ba_deterministic_per_seed(self):
        assert (barabasi_albert_graph(60, 2, seed=4).edge_set()
                == barabasi_albert_graph(60, 2, seed=4).edge_set())

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            erdos_renyi_graph(30, 0.0, seed=1)
        with pytest.raises(ValueError):
            erdos_renyi_graph(30, 1.5, seed=1)
        with pytest.raises(ValueError):
            barabasi_albert_graph(5, 5, seed=1)
        with pytest.raises(ValueError):
            complete_graph(1)

    def test_spec_strings(self, tmp_path):
        assert graph_from_spec("complete:6").n_edges == 15
        assert graph_from_spec("ba:20,2", seed=1).n_nodes == 20
        assert graph_from_spec("er:10,0.5", seed=1).n_nodes == 10
        path = tmp_path / "g.edges"
        path.write_text("0 1\n")
        assert graph_from_spec(f"file:{path}").n_edges == 1
        with pytest.raises(ValueError):
            graph_from_spec("torus:4")
        with pytest.raises(ValueError):
            graph_from_spec("ba:20")


class TestSpectralRadius:
    def test_complete_graphs(self):
        for n in (3, 5, 50):
            assert spectral_radius(complete_graph(n)) == pytest.approx(n - 1, abs=1e-6)

    def test_single_edge(self):
        assert spectral_radius(build_graph(2, [(0, 1)])) == pytest.approx(1.0, abs=1e-9)

    def test_four_cycle_against_dense_eigendecomposition(self):
        g = cycle_graph(4)
        dense = np.zeros((4, 4))
        for u, v in g.edge_set():
            dense[u, v] = dense[v, u] = 1.0
        oracle = float(np.max(np.linalg.eigvalsh(dense)))
        assert oracle == pytest.approx(2.0, abs=1e-12)
        assert spectral_radius(g) == pytest.approx(oracle, abs=1e-6)

    def test_random_graph_against_dense_eigendecomposition(self):
        g = erdos_renyi_graph(40, 0.2, seed=12)
        dense = np.zeros((40, 40))
        for u, v in g.edge_set():
            dense[u, v] = dense[v, u] = 1.0
        oracle = float(np.max(np.linalg.eigvalsh(dense)))
        assert spectral_radius(g, tol=1e-10) == pytest.approx(oracle, abs=1e-8)

    def test_relabeling_invariance(self):
        g = barabasi_albert_graph(60, 3, seed=8)
        rng = np.random.default_rng(0)
        perm = rng.permutation(60)
        relabeled = build_graph(60, [(int(perm[u]), int(perm[v]))
                                     for u, v in g.edge_set()])
        assert spectral_radius(relabeled) == pytest.approx(spectral_radius(g), abs=1e-8)

    def test_degree_bounds(self):
        for seed in range(5):
            g = erdos_renyi_graph(50, 0.1, seed=seed)
            if g.n_edges == 0:
                continue
            lam = spectral_radius(g)
            avg_deg = g.degrees.mean()
            assert lam >= avg_deg - 1e-6
            assert lam <= g.degrees.max() + 1e-6

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            spectral_radius(Graph(0, np.zeros(1, dtype=np.int64),
                                  np.zeros(0, dtype=np.int64)))

    def test_edgeless_graph_radius_zero(self):
        assert spectral_radius(build_graph(3, [])) == 0.0

    def test_nonconvergence_carries_estimate(self):
        g = barabasi_albert_graph(80, 3, seed=1)
        with pytest.raises(SpectralRadiusError) as info:
            spectral_radius(g, tol=1e-15, max_iter=1)
        assert np.isfinite(info.value.estimate)
