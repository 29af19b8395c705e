"""Seed-derived random substreams.

Every stochastic routine draws from a generator keyed by (seed, tag, index...)
so that chunked work gives identical results for any worker count, and two
calls with the same inputs replay byte-identically.
"""

from __future__ import annotations

import json
import operator
import zlib

import numpy as np

from .errors import ConfigError

# Tag namespace for substream keys; one per sampling site.
TAG_REJECTION = 101
TAG_WEIGHTED = 102
TAG_PUSHFORWARD = 103
TAG_MC_NORM = 104
TAG_DIRECTIONS = 105
TAG_PROBE = 106
TAG_STARTS = 107
TAG_BATTERY = 108
TAG_BOXES = 109
TAG_OPTIMIZER = 110

# Draws per substream: chunk i of a stream is keyed by (seed, tag, ..., i).
CHUNK = 1 << 16


def as_seed(seed) -> int:
    """`seed` as an int. Python and numpy integers pass; anything else (bool,
    float, string, Generator) is refused rather than truncated to some
    other seed's stream."""
    if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool):
        return operator.index(seed)
    raise ConfigError(f"seed must be an integer, got {seed!r}")


def substream(seed: int, *key) -> np.random.Generator:
    """Generator for the substream addressed by ``key`` under ``seed``.

    The seed is read by as_seed; key parts are integers, strings folded by stable_key.
    """
    parts = tuple(int(k) if not isinstance(k, str) else stable_key(k) for k in key)
    return np.random.default_rng(np.random.SeedSequence(as_seed(seed), spawn_key=parts))


def stable_key(obj) -> int:
    """Deterministic 32-bit key for a JSON-serialisable descriptor.

    Used to derive substreams from structural descriptions (domain spec,
    weight function) so that identical computations replay identical draws.
    """
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return zlib.crc32(text.encode("utf-8"))
