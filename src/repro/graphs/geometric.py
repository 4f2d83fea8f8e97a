"""Random geometric radio networks.

Section 5 of the paper names random geometric graphs as the natural next
model for AdHoc networks ("the Erdős–Rényi model … appears to be somewhat
unrealistic for practical AdHoc networks.  We can consider other alternative
models for random graphs, such as the random geometric graphs").  This module
implements that extension:

* :func:`geometric_digraph` — ``n`` nodes uniform in the unit square, an edge
  ``(u, v)`` whenever ``dist(u, v) <= radius`` (symmetric unit-disk model);
* :func:`heterogeneous_geometric_digraph` — per-node listening radii, which
  produces genuinely **asymmetric** links exactly as the paper's model allows
  ("one device may be able to listen to messages sent out by a node in its
  communication range, but not vice-versa");
* :func:`geometric_digraph_from_positions` — build from given positions
  (used by the mobility model in :mod:`repro.radio.dynamics`).

Neighbours are found with a cell list: points are bucketed into square
cells of side at least the largest radius, so every pair within reach lies in
the same or an adjacent cell, and only the 3 × 3 block around each point is
scanned.  An edge is kept when its squared distance is at most the listener's
squared radius.  With at most about ``n`` cells, construction is
``O(n + m + c)`` in numpy, where ``c`` counts candidate pairs in adjacent cells.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro._util.rng import SeedLike, as_generator
from repro._util.validation import check_positive, check_positive_int
from repro.radio.network import RadioNetwork

__all__ = [
    "geometric_digraph",
    "geometric_digraph_from_positions",
    "heterogeneous_geometric_digraph",
    "connectivity_radius",
]


def connectivity_radius(n: int, safety: float = 1.5) -> float:
    """A radius that keeps a uniform unit-square geometric graph connected w.h.p.

    The classical threshold is ``r = sqrt(log n / (pi n))``; ``safety`` scales
    it up so small experiment sizes stay connected reliably.
    """
    n = check_positive_int(n, "n", minimum=2)
    return float(safety * np.sqrt(np.log(n) / (np.pi * n)))


def geometric_digraph(
    n: int,
    radius: float,
    *,
    rng: SeedLike = None,
    name: Optional[str] = None,
    return_positions: bool = False,
):
    """Uniform random geometric radio network on the unit square.

    Every pair at distance at most ``radius`` is connected in both directions
    (all devices share the same range).

    Parameters
    ----------
    n, radius:
        Node count and shared communication radius.
    return_positions:
        When True, return ``(network, positions)``.
    """
    n = check_positive_int(n, "n")
    radius = check_positive(radius, "radius")
    generator = as_generator(rng)
    positions = generator.random((n, 2))
    if name is None:
        name = f"rgg(n={n}, r={radius:.4g})"
    network = geometric_digraph_from_positions(positions, radius, name=name)
    if return_positions:
        return network, positions
    return network


def geometric_digraph_from_positions(
    positions: np.ndarray,
    radius: float,
    *,
    name: str = "rgg",
) -> RadioNetwork:
    """Symmetric unit-disk network induced by ``positions`` and a shared ``radius``."""
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError(f"positions must have shape (n, 2), got {positions.shape}")
    if not np.isfinite(positions).all():
        raise ValueError("positions must be finite")
    radius = check_positive(radius, "radius")
    n = check_positive_int(positions.shape[0], "number of positions")
    edges = _edges_within_reach(positions, np.full(n, radius))
    return RadioNetwork(n, edges, name=name)


def heterogeneous_geometric_digraph(
    n: int,
    radius_low: float,
    radius_high: float,
    *,
    rng: SeedLike = None,
    name: Optional[str] = None,
    return_positions: bool = False,
):
    """Geometric network with per-node listening radii (asymmetric links).

    Node ``v`` draws a listening radius uniformly from
    ``[radius_low, radius_high]``; an edge ``(u, v)`` exists whenever ``u``
    lies within ``v``'s listening radius.  Because radii differ, ``(u, v)``
    may exist without ``(v, u)`` — the asymmetric situation the paper's model
    explicitly permits (and which rules out acknowledgement-based protocols).
    """
    n = check_positive_int(n, "n")
    radius_low = check_positive(radius_low, "radius_low")
    radius_high = check_positive(radius_high, "radius_high")
    if radius_high < radius_low:
        raise ValueError(
            f"radius_high ({radius_high}) must be >= radius_low ({radius_low})"
        )
    generator = as_generator(rng)
    positions = generator.random((n, 2))
    radii = generator.uniform(radius_low, radius_high, size=n)
    if name is None:
        name = f"rgg-hetero(n={n}, r=[{radius_low:.3g},{radius_high:.3g}])"

    # Listener v hears every u within radii[v]: edge (u, v).
    network = RadioNetwork(n, _edges_within_reach(positions, radii), name=name)
    if return_positions:
        return network, positions
    return network


def _edges_within_reach(
    positions: np.ndarray, radii: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(sources, targets)`` of every pair ``u != v`` with
    ``|p_u - p_v|^2 <= radii[v]^2``, found with a cell list.

    Cells are square with side a hair above ``radii.max()`` (so rounding in
    the bucketing never pushes a pair within reach two cells apart) and at
    least ``extent / isqrt(n)``, which caps the grid at about ``n`` cells.
    Every point ``v`` is scanned against the points of the 3 × 3 cells
    around its own, one cell offset at a time.  The pairs come out
    unsorted; :class:`RadioNetwork` sorts them.
    """
    n = positions.shape[0]
    xs = np.ascontiguousarray(positions[:, 0])
    ys = np.ascontiguousarray(positions[:, 1])
    reach_sq = radii * radii
    low = positions.min(axis=0)
    extent = float((positions.max(axis=0) - low).max())
    side = max(float(radii.max()) * (1.0 + 1e-9), extent / max(1, math.isqrt(n)))
    cell_xy = ((positions - low) / side).astype(np.int64)
    width, height = (int(k) + 1 for k in cell_xy.max(axis=0))
    cell = cell_xy[:, 0] * height + cell_xy[:, 1]
    by_cell = np.argsort(cell)
    counts = np.bincount(cell, minlength=width * height)
    starts = np.cumsum(counts) - counts

    sources, targets = [], []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            nx = cell_xy[:, 0] + dx
            ny = cell_xy[:, 1] + dy
            listeners = np.flatnonzero((nx >= 0) & (nx < width) & (ny >= 0) & (ny < height))
            neighbour_cell = nx[listeners] * height + ny[listeners]
            sizes = counts[neighbour_cell]
            # Candidate k of listener j is point by_cell[starts[cell_j] + k].
            v = np.repeat(listeners, sizes)
            first = np.repeat(starts[neighbour_cell] - (np.cumsum(sizes) - sizes), sizes)
            u = by_cell[first + np.arange(v.size)]
            ddx = xs[u] - xs[v]
            ddy = ys[u] - ys[v]
            dist_sq = ddx * ddx
            dist_sq += ddy * ddy
            keep = (dist_sq <= reach_sq[v]) & (u != v)
            sources.append(u[keep])
            targets.append(v[keep])
    return np.concatenate(sources), np.concatenate(targets)
