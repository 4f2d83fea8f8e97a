"""Declarative topology specifications for the experiment harness.

Experiments describe their workloads as :class:`GraphSpec` values so sweeps
can be written as plain data (and serialised into results files), and
:func:`build_network` turns a spec plus a seed into a concrete
:class:`~repro.radio.network.RadioNetwork`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro._util.rng import SeedLike
from repro.graphs import geometric, structured
from repro.graphs.lowerbound import observation43_network, theorem44_network
from repro.graphs.random_digraph import (
    random_digraph,
    random_undirected_radio_network,
)
from repro.radio.network import RadioNetwork

__all__ = ["GraphSpec", "build_network", "spec_is_deterministic", "FAMILIES"]


@dataclass(frozen=True)
class GraphSpec:
    """A named topology family plus its parameters.

    Attributes
    ----------
    family:
        One of the keys of :data:`FAMILIES`
        (``"gnp"``, ``"gnp_undirected"``, ``"geometric"``,
        ``"geometric_hetero"``, ``"path"``, ``"cycle"``, ``"star"``,
        ``"complete"``, ``"grid"``, ``"path_of_cliques"``, ``"caterpillar"``,
        ``"observation43"``, ``"theorem44"``).
    params:
        Keyword arguments forwarded to the family's generator.
    """

    family: str
    params: Dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        """Readable one-line description used in tables."""
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.family}({inner})"

    def as_dict(self) -> Dict[str, Any]:
        return {"family": self.family, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "GraphSpec":
        return cls(family=payload["family"], params=dict(payload.get("params", {})))


def _seeded(generator):
    """Adapt a random family's generator to the ``build(rng=..., **params)``
    builder convention.  ``functools.wraps`` keeps the generator's
    signature visible to :func:`inspect.signature`, which is what lets a
    sweep cell check its ``GraphSpec`` parameters before anything runs."""

    @functools.wraps(generator)
    def build(*, rng: SeedLike = None, **params) -> RadioNetwork:
        return generator(rng=rng, **params)

    return build


def _structural(generator):
    """Like :func:`_seeded`, for generators that take no rng."""

    @functools.wraps(generator)
    def build(*, rng: SeedLike = None, **params) -> RadioNetwork:
        return generator(**params)

    return build


#: Registry mapping family name to builder callable.
FAMILIES = {
    "gnp": _seeded(random_digraph),
    "gnp_undirected": _seeded(random_undirected_radio_network),
    "geometric": _seeded(geometric.geometric_digraph),
    "geometric_hetero": _seeded(geometric.heterogeneous_geometric_digraph),
    "path": _structural(structured.path_network),
    "cycle": _structural(structured.cycle_network),
    "star": _structural(structured.star_network),
    "complete": _structural(structured.complete_network),
    "grid": _structural(structured.grid_network),
    "path_of_cliques": _structural(structured.path_of_cliques),
    "caterpillar": _structural(structured.layered_caterpillar),
    "observation43": _structural(observation43_network),
    "theorem44": _structural(theorem44_network),
}


#: Families whose builders ignore the sampling rng (same network under every
#: seed), which is what lets the execution plan build such a topology once
#: per sweep and share it.  An *allowlist* so a newly registered family
#: fails safe: until it is declared deterministic here, every trial keeps
#: its own sample — merely unoptimised, never statistically wrong.
_DETERMINISTIC_FAMILIES = frozenset(
    {
        "path",
        "cycle",
        "star",
        "complete",
        "grid",
        "path_of_cliques",
        "caterpillar",
        "observation43",
        "theorem44",
    }
)


def spec_is_deterministic(spec: GraphSpec) -> bool:
    """True when ``spec``'s builder ignores the rng (same network per seed)."""
    return spec.family in _DETERMINISTIC_FAMILIES


def build_network(spec: GraphSpec, *, rng: SeedLike = None) -> RadioNetwork:
    """Instantiate the network described by ``spec``.

    Random families consume ``rng``; deterministic families ignore it, so a
    sweep can pass per-repetition generators uniformly.
    """
    try:
        builder = FAMILIES[spec.family]
    except KeyError:
        known = ", ".join(sorted(FAMILIES))
        raise ValueError(f"unknown graph family {spec.family!r}; known families: {known}")
    return builder(rng=rng, **spec.params)
