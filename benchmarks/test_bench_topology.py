"""G(n, p) topology sampling: milliseconds per graph and edges per second.

Record-only cells (no wall-clock gate) for ``random_digraph``, the sampler
every E1-style sweep trial pays for once:

* ``n=1024 p=0.05`` — a mid-size dense-ish graph (~52k edges);
* ``n=2048 dense_p`` — the largest ``gnp-broadcast`` regime (~290k edges);
* ``24 x n=128 threshold_p`` — one exact-resume style cell: many small
  graphs, where per-call overhead rather than sorting dominates.

``extra_info`` carries ``topology_ms_per_graph`` and
``topology_edges_per_s`` (from the fastest round) so ``BENCH_engine.json``
tracks the sampler across changes.
"""

import pytest

from repro.experiments.common import dense_p, threshold_p
from repro.graphs.random_digraph import random_digraph

CELLS = {
    "n1024-p0.05": (1024, 0.05, 1),
    "n2048-dense": (2048, dense_p(2048), 1),
    "24x-n128-threshold": (128, threshold_p(128), 24),
}


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_bench_topology_sampling(benchmark, cell):
    n, p, graphs = CELLS[cell]

    def sample():
        return sum(random_digraph(n, p, rng=seed).num_edges for seed in range(graphs))

    edges = benchmark.pedantic(sample, rounds=5, iterations=1, warmup_rounds=1)
    assert edges > 0
    seconds = benchmark.stats.stats.min
    benchmark.extra_info.update(
        topology_cell=cell,
        graphs=graphs,
        edges=edges,
        topology_ms_per_graph=1e3 * seconds / graphs,
        topology_edges_per_s=edges / seconds,
    )
