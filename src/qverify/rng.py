"""Deterministic random streams.

All stochastic operations in the package draw from numpy's PCG64 generator.
Substreams are derived with ``SeedSequence(seed, spawn_key=key)`` so that any
(seed, key-path) pair names the same stream on every run and every platform.
Batched samplers consume variates from a single stream in a documented,
deterministic order; parallel callers should derive one substream per unit of
work (e.g. per shot index) instead of sharing a stream.
"""

from __future__ import annotations

import numpy as np


def stream(seed: int, *key: int) -> np.random.Generator:
    """PCG64 generator for root ``seed``, optionally derived along ``key``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))

