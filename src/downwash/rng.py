"""Deterministic random-stream plumbing.

All randomness in the package flows from one integer seed through named
substreams.  Streams are backed by the counter-based Philox generator keyed
with two 64-bit words (seed, stream index), which is documented, portable
and bit-reproducible across platforms; independent stream indices may be
drawn from in parallel without affecting each other.

Because Philox is counter-based, a stream is fully determined by its key:
a generator whose key is reset to (seed, i), with the counter at zero and
the output buffer empty, continues exactly as ``stream(seed, i)`` would
from its start.  :func:`normal_rows` draws many streams through one
generator that way; :func:`stream` stays the reference it must match
bitwise.
"""

from __future__ import annotations

import hashlib

import numpy as np

_U64 = 2**64


def substream_seed(seed: int, label: str) -> int:
    """Derive a 64-bit child seed from (seed, label) via SHA-256.

    Used to give each pipeline stage (dataset generation, weight init,
    shuffling) its own independent stream family.
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def stream(seed: int, stream_index: int = 0) -> np.random.Generator:
    """A fresh generator keyed by (seed, stream_index)."""
    key = np.array([seed % _U64, stream_index % _U64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def normal_rows(seed: int, n: int, width: int) -> np.ndarray:
    """Standard normals (n, width) whose row i is, bitwise,
    ``stream(seed, i).standard_normal(width)``.

    One Philox generator is re-keyed per row instead of building a new one:
    the state of a fresh generator (zero counter, empty buffer) is taken
    once and only its key changes from row to row.
    """
    bits = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    gen = np.random.Generator(bits)
    state = bits.state
    out = np.empty((n, width))
    for i in range(n):
        state["state"]["key"] = [seed % _U64, i % _U64]
        bits.state = state
        gen.standard_normal(width, out=out[i])
    return out
