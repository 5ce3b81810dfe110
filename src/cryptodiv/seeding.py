"""Deterministic RNG substreams.

Every random draw in the pipeline comes from a generator built here, keyed
by the run seed plus a path of labels (strings or ints). String labels are
hashed with SHA-256 so streams are stable across platforms and feature
renames only change the streams they name.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _key_to_int(key: int | str) -> int:
    if isinstance(key, (int, np.integer)):
        return int(key) & 0xFFFFFFFFFFFFFFFF
    digest = hashlib.sha256(str(key).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def substream(seed: int, *keys: int | str) -> np.random.Generator:
    """Generator for the substream identified by (seed, *keys)."""
    entropy = [_key_to_int(seed)] + [_key_to_int(k) for k in keys]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def derive_seed(seed: int, *keys: int | str) -> int:
    """Integer seed in [0, 2**63 - 1) drawn from the substream (seed, *keys)."""
    return int(substream(seed, *keys).integers(0, 2 ** 63 - 1))
