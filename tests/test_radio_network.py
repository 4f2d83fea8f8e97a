"""Tests for repro.radio.network.RadioNetwork."""

import numpy as np
import pytest

from repro.radio.network import RadioNetwork, csr_from_sorted_edges


class TestConstruction:
    def test_basic_edges(self, tiny_network):
        assert tiny_network.n == 5
        assert tiny_network.num_edges == 5

    def test_edge_pair_arrays(self):
        net = RadioNetwork(4, (np.array([0, 1, 2]), np.array([1, 2, 3])))
        assert net.num_edges == 3
        assert net.has_edge(0, 1)

    def test_duplicate_edges_collapsed(self):
        net = RadioNetwork(3, [(0, 1), (0, 1), (1, 2)])
        assert net.num_edges == 2

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            RadioNetwork(3, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            RadioNetwork(3, [(0, 3)])
        with pytest.raises(ValueError):
            RadioNetwork(3, [(-1, 2)])

    def test_empty_network(self):
        net = RadioNetwork(4, np.empty((0, 2), dtype=np.int64))
        assert net.num_edges == 0
        assert net.out_degrees().sum() == 0

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError):
            RadioNetwork(4, (np.array([0, 1]), np.array([1])))

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            RadioNetwork(4, np.array([0, 1, 2]))

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            RadioNetwork(0, [])


class TestDegreesAndNeighbours:
    def test_out_degrees(self, tiny_network):
        assert list(tiny_network.out_degrees()) == [2, 1, 1, 1, 0]

    def test_in_degrees(self, tiny_network):
        assert list(tiny_network.in_degrees()) == [0, 1, 1, 2, 1]

    def test_out_neighbors_sorted(self, tiny_network):
        assert list(tiny_network.out_neighbors(0)) == [1, 2]

    def test_in_neighbors(self, tiny_network):
        assert list(tiny_network.in_neighbors(3)) == [1, 2]

    def test_has_edge(self, tiny_network):
        assert tiny_network.has_edge(0, 1)
        assert not tiny_network.has_edge(1, 0)

    def test_invalid_node_index(self, tiny_network):
        with pytest.raises(ValueError):
            tiny_network.out_neighbors(9)

    def test_edge_list_roundtrip(self, tiny_network):
        edges = tiny_network.edge_list()
        rebuilt = RadioNetwork(tiny_network.n, edges)
        assert rebuilt == tiny_network


class TestTransforms:
    def test_reverse(self, tiny_network):
        rev = tiny_network.reverse()
        assert rev.has_edge(1, 0)
        assert not rev.has_edge(0, 1)
        assert rev.num_edges == tiny_network.num_edges

    def test_symmetrized(self, tiny_network):
        sym = tiny_network.symmetrized()
        assert sym.is_symmetric()
        assert sym.has_edge(0, 1) and sym.has_edge(1, 0)

    def test_is_symmetric_detects_asymmetry(self, tiny_network):
        assert not tiny_network.is_symmetric()

    def test_with_name(self, tiny_network):
        renamed = tiny_network.with_name("other")
        assert renamed.name == "other"
        assert renamed == tiny_network  # topology equality ignores name
        assert renamed.in_indices is tiny_network.in_indices

    def test_empty_symmetric(self):
        assert RadioNetwork(3, []).is_symmetric()


class TestInterop:
    def test_networkx_roundtrip(self, tiny_network):
        nx_graph = tiny_network.to_networkx()
        assert nx_graph.number_of_nodes() == 5
        back = RadioNetwork.from_networkx(nx_graph)
        assert back == tiny_network

    def test_from_undirected_networkx(self):
        import networkx as nx

        g = nx.path_graph(4)
        net = RadioNetwork.from_networkx(g)
        assert net.has_edge(0, 1) and net.has_edge(1, 0)
        assert net.is_symmetric()

    def test_from_networkx_relabels(self):
        import networkx as nx

        g = nx.DiGraph()
        g.add_edge("a", "b")
        net = RadioNetwork.from_networkx(g)
        assert net.n == 2
        assert net.num_edges == 1


def _csr(n, edges):
    """Both CSRs of ``edges`` as ``csr_from_sorted_edges`` builds them,
    without the sorting or validation the public constructor does."""
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return csr_from_sorted_edges(n, arr[:, 0], arr[:, 1])


class TestFromCsr:
    def test_round_trips_public_constructor(self, tiny_network):
        net = RadioNetwork._from_csr(
            5, *_csr(5, tiny_network.edge_list()), name="tiny"
        )
        assert net == tiny_network and net.name == "tiny"
        np.testing.assert_array_equal(net.in_indptr, tiny_network.in_indptr)
        np.testing.assert_array_equal(net.in_indices, tiny_network.in_indices)
        with pytest.raises(ValueError):
            net.in_indices[0] = 1

    def test_empty(self):
        assert RadioNetwork._from_csr(3, *_csr(3, [])).num_edges == 0

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 1), (2, 2)], "self-loops"),
            ([(0, 1), (0, 1), (1, 2)], "strictly increasing"),
            ([(0, 2), (0, 1), (1, 2)], "strictly increasing"),
        ],
        ids=["self-loop", "duplicate", "unsorted-row"],
    )
    def test_rejects(self, edges, message):
        with pytest.raises(ValueError, match=message):
            RadioNetwork._from_csr(3, *_csr(3, edges))

    @pytest.mark.parametrize("bad", [3, -1])
    def test_rejects_out_of_range_endpoint(self, bad):
        out_indptr, out_indices, in_indptr, in_indices = _csr(3, [(0, 1), (1, 2)])
        out_indices = np.array([1, bad], dtype=np.int32)
        with pytest.raises(ValueError, match="out of range"):
            RadioNetwork._from_csr(3, out_indptr, out_indices, in_indptr, in_indices)

    def test_rejects_malformed_row_pointer(self):
        out_indptr, out_indices, in_indptr, in_indices = _csr(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="row pointer"):
            RadioNetwork._from_csr(
                3, np.array([0, 2, 1, 2]), out_indices, in_indptr, in_indices
            )
        with pytest.raises(ValueError, match="dtypes"):
            RadioNetwork._from_csr(
                3, out_indptr, out_indices.astype(np.int64), in_indptr, in_indices
            )

    def test_rejects_edge_count_mismatch(self):
        out = _csr(3, [(0, 1), (1, 2)])
        inn = _csr(3, [(0, 1)])
        with pytest.raises(ValueError, match="edge count"):
            RadioNetwork._from_csr(3, out[0], out[1], inn[2], inn[3])

    def test_row_boundaries_may_descend(self):
        # Row 0 ends at 2, row 1 starts at 0; empty leading/trailing rows.
        net = RadioNetwork._from_csr(4, *_csr(4, [(1, 2), (1, 3), (2, 0)]))
        assert net.num_edges == 3 and net.has_edge(2, 0)


class TestDunder:
    def test_equality(self, tiny_network):
        other = RadioNetwork(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
        assert tiny_network == other

    def test_inequality(self, tiny_network):
        other = RadioNetwork(5, [(0, 1)])
        assert tiny_network != other
        assert tiny_network != "not a network"

    def test_repr(self, tiny_network):
        text = repr(tiny_network)
        assert "n=5" in text and "m=5" in text

    def test_indices_read_only(self, tiny_network):
        with pytest.raises(ValueError):
            tiny_network.out_indices[0] = 3
