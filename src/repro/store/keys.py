"""Canonical cache keys for the content-addressed result store.

Every per-trial result is addressed by a SHA-256 digest of *what produced
it*: the job's declarative specs (graph family + params, protocol name +
params, seed, engine options) plus the execution context that affects the
result bits (randomness policy, fast-mode cohort) and :data:`ENGINE_VERSION`.
Two configurations that would produce identical bits must digest to the same
key, so the payload is canonicalised before hashing:

* dict keys are sorted (insertion order never matters),
* numpy scalars collapse to the Python values they JSON-serialise as
  (``np.int64(5)`` and ``5`` digest identically, as do ``np.float64(p)``
  and ``float(p)``),
* tuples and numpy arrays become lists.

Conversely, anything that *can* change the result bits must be part of the
payload — most importantly :data:`ENGINE_VERSION`, which is baked into every
digest so results computed by an older engine can never be mistaken for
current ones.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping

import numpy as np

__all__ = ["ENGINE_VERSION", "canonicalize", "canonical_dumps", "trial_digest"]

#: Version tag of the simulation engine's *semantics*.  Bump this on any
#: change that alters what a (graph, protocol, seed) triple computes — rng
#: consumption order, collision resolution, protocol round logic, trace
#: contents — and every previously stored result silently becomes a cache
#: miss instead of a wrong answer.  Purely representational changes (state
#: backends, scheduling, sharding) are bit-identical by construction and do
#: not require a bump.
ENGINE_VERSION = "4.0"


#: Types returned as they are.  Matched by exact type, so subclasses still
#: take the general path below: ``np.float64`` subclasses ``float`` and
#: is converted there.
_PLAIN_TYPES = frozenset({str, int, float, bool, type(None)})


def canonicalize(value: Any) -> Any:
    """Reduce ``value`` to canonical JSON-ready form (see module docstring)."""
    # Fast path for the plain Python types a job payload is made of; it
    # skips the ABC ``isinstance`` checks and returns what they would.
    kind = type(value)
    if kind in _PLAIN_TYPES:
        return value
    if kind is dict:
        return {str(k): canonicalize(value[k]) for k in sorted(value, key=str)}
    if kind is list or kind is tuple:
        return [canonicalize(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): canonicalize(value[k]) for k in sorted(value, key=str)}
    if isinstance(value, (list, tuple)):
        return [canonicalize(v) for v in value]
    if isinstance(value, np.ndarray):
        return [canonicalize(v) for v in value.tolist()]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"value of type {type(value).__name__} cannot be part of a cache key"
    )


def canonical_dumps(payload: Any) -> str:
    """Deterministic JSON text of ``payload`` (sorted keys, no whitespace)."""
    return json.dumps(
        canonicalize(payload), sort_keys=True, separators=(",", ":")
    )


def trial_digest(payload: Mapping[str, Any]) -> str:
    """The store key for one trial: SHA-256 over the canonical payload.

    :data:`ENGINE_VERSION` is merged into the payload before hashing, so a
    version bump invalidates every existing key at once.
    """
    body = dict(payload)
    body["engine_version"] = ENGINE_VERSION
    return hashlib.sha256(canonical_dumps(body).encode("utf-8")).hexdigest()
