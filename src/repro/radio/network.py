"""The :class:`RadioNetwork` digraph container.

A :class:`RadioNetwork` stores a directed graph in compressed-sparse-row
(CSR) form, once for out-edges and once for in-edges, because the simulation
hot path needs both directions:

* *out*-adjacency (``u -> set of listeners``) to scatter a transmission by
  ``u`` to everyone who can hear it;
* *in*-adjacency (``v -> set of stations v can hear``) for analysis
  (in-degrees, BFS layers from the source, …).

Edge direction follows the paper's Section 1.2: an edge ``(u, v)`` means a
message transmitted by ``u`` may be received by ``v``.  Asymmetric links
(``(u, v)`` present but ``(v, u)`` absent) model devices with different
communication ranges and are fully supported.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro._util.validation import check_node_index, check_positive_int

__all__ = ["RadioNetwork"]


class RadioNetwork:
    """A fixed directed radio network on nodes ``0 .. n-1``.

    Parameters
    ----------
    n:
        Number of nodes.
    edges:
        Either a ``(m, 2)`` integer array / sequence of ``(u, v)`` pairs, or a
        pair ``(sources, targets)`` of equal-length integer arrays.  Duplicate
        edges are collapsed; self-loops are rejected (a radio cannot usefully
        transmit to itself and the paper's model excludes them).
    name:
        Optional human-readable name (topology family + parameters); carried
        through traces and experiment results.

    Notes
    -----
    Instances are immutable; all mutating topology operations return new
    networks.  The underlying arrays are exposed read-only for the simulation
    engine.
    """

    __slots__ = (
        "_n",
        "_out_indptr",
        "_out_indices",
        "_in_indptr",
        "_in_indices",
        "_name",
        # Lets a sweep test that a shared sample is released on time.
        "__weakref__",
    )

    def __init__(
        self,
        n: int,
        edges: "np.ndarray | Sequence[Tuple[int, int]] | Tuple[np.ndarray, np.ndarray]",
        *,
        name: str = "",
    ):
        n = check_positive_int(n, "n")
        sources, targets = _coerce_edges(edges)
        if sources.size:
            if sources.min() < 0 or targets.min() < 0:
                raise ValueError("edge endpoints must be non-negative")
            if sources.max() >= n or targets.max() >= n:
                raise ValueError(
                    f"edge endpoint out of range for n={n}: "
                    f"max source {sources.max()}, max target {targets.max()}"
                )
            if np.any(sources == targets):
                raise ValueError("self-loops are not allowed in the radio model")
            # Deduplicate: one sort of the packed (source, target) key.
            keys = sources * np.int64(n) + targets
            keys.sort()
            keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
            sources, targets = np.divmod(keys, n)
        self._adopt(n, *csr_from_sorted_edges(n, sources, targets), name)

    @classmethod
    def _from_csr(
        cls, n: int, out_indptr, out_indices, in_indptr, in_indices, *, name: str = ""
    ) -> "RadioNetwork":
        """Internal, trusted constructor: wrap prebuilt CSR arrays as a network.

        For builders that already hold both adjacencies in canonical form (see
        :func:`csr_from_sorted_edges`); it skips the public constructor's
        dedup and re-sort, and shares the arrays instead of copying them.
        Callers are trusted to pass the in-CSR as the transpose of the
        out-CSR; what is still checked, in O(n + m), is that each pair is a
        well-formed CSR over ``0 .. n-1`` with ``int64`` row pointers and
        ``int32`` indices, that both hold the same number of edges, that no
        edge is a self-loop and that every row is strictly increasing (so
        sorted and free of duplicate edges).
        """
        for indptr, indices in ((out_indptr, out_indices), (in_indptr, in_indices)):
            _check_csr(n, indptr, indices)
        if out_indices.size != in_indices.size:
            raise ValueError("out- and in-CSR disagree on the edge count")
        net = cls.__new__(cls)
        net._adopt(n, out_indptr, out_indices, in_indptr, in_indices, name)
        return net

    def _adopt(self, n, out_indptr, out_indices, in_indptr, in_indices, name) -> None:
        self._n = n
        self._out_indptr = out_indptr
        self._out_indices = out_indices
        self._in_indptr = in_indptr
        self._in_indices = in_indices
        for arr in (out_indptr, out_indices, in_indptr, in_indices):
            arr.setflags(write=False)
        self._name = str(name)

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def num_nodes(self) -> int:
        """Alias for :attr:`n`."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of directed edges (after deduplication)."""
        return int(self._out_indices.size)

    @property
    def name(self) -> str:
        """Human-readable topology name (may be empty)."""
        return self._name

    @property
    def out_indptr(self) -> np.ndarray:
        """CSR row pointer of the out-adjacency (read-only)."""
        return self._out_indptr

    @property
    def out_indices(self) -> np.ndarray:
        """CSR column indices of the out-adjacency (read-only)."""
        return self._out_indices

    @property
    def in_indptr(self) -> np.ndarray:
        """CSR row pointer of the in-adjacency (read-only)."""
        return self._in_indptr

    @property
    def in_indices(self) -> np.ndarray:
        """CSR column indices of the in-adjacency (read-only)."""
        return self._in_indices

    # ------------------------------------------------------------------ #
    # Degrees and neighbourhoods
    # ------------------------------------------------------------------ #
    def out_degrees(self) -> np.ndarray:
        """Array of out-degrees (how many listeners each node reaches)."""
        return np.diff(self._out_indptr)

    def in_degrees(self) -> np.ndarray:
        """Array of in-degrees (how many stations each node can hear)."""
        return np.diff(self._in_indptr)

    def out_neighbors(self, node: int) -> np.ndarray:
        """Nodes that can hear ``node``."""
        node = check_node_index(node, self._n)
        return self._out_indices[self._out_indptr[node] : self._out_indptr[node + 1]]

    def in_neighbors(self, node: int) -> np.ndarray:
        """Nodes that ``node`` can hear."""
        node = check_node_index(node, self._n)
        return self._in_indices[self._in_indptr[node] : self._in_indptr[node + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """True iff a transmission by ``u`` can reach ``v``."""
        u = check_node_index(u, self._n, "u")
        v = check_node_index(v, self._n, "v")
        row = self._out_indices[self._out_indptr[u] : self._out_indptr[u + 1]]
        idx = np.searchsorted(row, v)
        return bool(idx < row.size and row[idx] == v)

    def edge_list(self) -> np.ndarray:
        """Return the ``(m, 2)`` array of directed edges ``(u, v)``."""
        sources = np.repeat(np.arange(self._n, dtype=np.int64), self.out_degrees())
        return np.column_stack([sources, self._out_indices.astype(np.int64)])

    # ------------------------------------------------------------------ #
    # Structure queries / transforms
    # ------------------------------------------------------------------ #
    def is_symmetric(self) -> bool:
        """True iff every edge has its reverse (an undirected radio network)."""
        edges = self.edge_list()
        if edges.size == 0:
            return True
        fwd = set(map(tuple, edges.tolist()))
        return all((v, u) in fwd for (u, v) in fwd)

    def reverse(self) -> "RadioNetwork":
        """Network with every edge reversed."""
        edges = self.edge_list()
        return RadioNetwork(
            self._n,
            (edges[:, 1], edges[:, 0]) if edges.size else (np.empty(0, np.int64),) * 2,
            name=f"{self._name}(reversed)" if self._name else "reversed",
        )

    def symmetrized(self) -> "RadioNetwork":
        """Network with each edge and its reverse (models equal ranges)."""
        edges = self.edge_list()
        if edges.size == 0:
            return RadioNetwork(self._n, np.empty((0, 2), np.int64), name=self._name)
        both = np.vstack([edges, edges[:, ::-1]])
        return RadioNetwork(self._n, both, name=f"{self._name}(sym)" if self._name else "sym")

    def with_name(self, name: str) -> "RadioNetwork":
        """Return a copy that carries ``name`` (the topology is shared-by-value)."""
        arrays = (self._out_indptr, self._out_indices, self._in_indptr, self._in_indices)
        return RadioNetwork._from_csr(self._n, *arrays, name=name)

    # ------------------------------------------------------------------ #
    # Interop
    # ------------------------------------------------------------------ #
    @classmethod
    def from_networkx(cls, graph, *, name: str = "") -> "RadioNetwork":
        """Build from a :mod:`networkx` graph.

        Undirected graphs become symmetric radio networks.  Node labels must
        be hashable; they are relabelled to ``0..n-1`` in sorted order when
        they are not already a contiguous integer range.
        """
        import networkx as nx

        nodes = list(graph.nodes())
        n = len(nodes)
        if sorted(nodes) == list(range(n)):
            mapping = {u: u for u in nodes}
        else:
            mapping = {u: i for i, u in enumerate(sorted(nodes, key=repr))}
        edges = []
        for u, v in graph.edges():
            edges.append((mapping[u], mapping[v]))
            if not graph.is_directed():
                edges.append((mapping[v], mapping[u]))
        arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        return cls(n, arr, name=name or getattr(graph, "name", "") or "")

    def to_networkx(self):
        """Export as a :class:`networkx.DiGraph`."""
        import networkx as nx

        g = nx.DiGraph(name=self._name)
        g.add_nodes_from(range(self._n))
        g.add_edges_from(map(tuple, self.edge_list().tolist()))
        return g

    # ------------------------------------------------------------------ #
    # Dunder
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RadioNetwork):
            return NotImplemented
        return (
            self._n == other._n
            and np.array_equal(self._out_indptr, other._out_indptr)
            and np.array_equal(self._out_indices, other._out_indices)
        )

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key in hot paths
        return hash((self._n, self._out_indices.tobytes(), self._out_indptr.tobytes()))

    def __repr__(self) -> str:
        label = f" name={self._name!r}" if self._name else ""
        return f"RadioNetwork(n={self._n}, m={self.num_edges}{label})"


# ---------------------------------------------------------------------- #
# Helpers
# ---------------------------------------------------------------------- #
def _coerce_edges(edges) -> Tuple[np.ndarray, np.ndarray]:
    """Normalise the accepted edge formats into (sources, targets) int64 arrays."""
    if isinstance(edges, tuple) and len(edges) == 2 and not _looks_like_pair(edges):
        sources = np.asarray(edges[0], dtype=np.int64).ravel()
        targets = np.asarray(edges[1], dtype=np.int64).ravel()
        if sources.shape != targets.shape:
            raise ValueError(
                f"sources and targets must have equal length, got {sources.size} and {targets.size}"
            )
        return sources, targets
    arr = np.asarray(edges, dtype=np.int64)
    if arr.size == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"edges must be an (m, 2) array of (u, v) pairs, got shape {arr.shape}")
    return arr[:, 0].copy(), arr[:, 1].copy()


def _looks_like_pair(edges: tuple) -> bool:
    """True when a 2-tuple is a single edge ``(u, v)`` rather than two arrays."""
    return all(isinstance(x, (int, np.integer)) for x in edges)


def csr_from_sorted_edges(
    n: int, sources: np.ndarray, targets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Both CSR adjacencies ``(out_indptr, out_indices, in_indptr, in_indices)``
    of distinct edges already sorted by ``(source, target)``.

    The sorted order is the out-CSR as it stands; the in-CSR takes one sort
    of the packed ``target * n + source`` keys.  Row pointers are ``int64``,
    indices ``int32``, and every row's indices ascend.
    """
    out_indptr = _indptr(n, sources)
    keys = targets * np.int64(n)
    keys += sources
    keys.sort()
    keys %= n
    return out_indptr, targets.astype(np.int32), _indptr(n, targets), keys.astype(np.int32)


def _indptr(n: int, rows: np.ndarray) -> np.ndarray:
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr


def _check_csr(n: int, indptr: np.ndarray, indices: np.ndarray) -> None:
    """Raise ``ValueError`` unless ``(indptr, indices)`` is a well-formed CSR
    over ``0 .. n-1`` without self-loops and with strictly increasing rows."""
    if indptr.dtype != np.int64 or indices.dtype != np.int32:
        raise ValueError(
            f"CSR dtypes must be int64/int32, got {indptr.dtype}/{indices.dtype}"
        )
    if indptr.shape != (n + 1,) or indices.ndim != 1:
        raise ValueError(f"CSR shape mismatch for n={n}")
    degrees = np.diff(indptr)
    if indptr[0] != 0 or indptr[-1] != indices.size or np.any(degrees < 0):
        raise ValueError("CSR row pointer must rise from 0 to the edge count")
    if indices.size == 0:
        return
    if indices.min() < 0 or indices.max() >= n:
        raise ValueError(f"edge endpoint out of range for n={n}")
    if np.any(np.repeat(np.arange(n, dtype=np.int32), degrees) == indices):
        raise ValueError("self-loops are not allowed in the radio model")
    # Comparisons across a row boundary (into a non-empty row) don't count.
    row_starts = indptr[1:-1]
    rising = indices[1:] > indices[:-1]
    rising[row_starts[(degrees[1:] > 0) & (row_starts > 0)] - 1] = True
    if not rising.all():
        raise ValueError("CSR rows must be strictly increasing (sorted, no duplicates)")
