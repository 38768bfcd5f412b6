"""Deterministic random-stream plumbing.

All randomness in the package flows from one integer seed through named
substreams.  Streams are backed by the counter-based Philox generator keyed
with two 64-bit words (seed, stream index), which is documented, portable
and bit-reproducible across platforms; independent stream indices may be
drawn from in parallel without affecting each other.

A stream is fully determined by its key, and a draw fills its output in
order, so a shorter draw is a prefix of a longer one.  :func:`normal_rows`
keys one stream per chunk of :data:`CHUNK_ROWS` rows, so each row depends
only on (seed, row index), never on how many rows are drawn.
"""

from __future__ import annotations

import hashlib

import numpy as np

_U64 = 2**64
CHUNK_ROWS = 4096  # rows of noise per stream key in normal_rows


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
    """Standard normals (n, width) drawn chunk by chunk: rows [cC, (c+1)C),
    C = :data:`CHUNK_ROWS`, are bitwise the first rows of
    ``stream(seed, c).standard_normal((C, width))``.

    Only the rows that exist are drawn; as a shorter draw is a prefix of a
    longer one, ``normal_rows(seed, m, width)`` is the first m rows of
    ``normal_rows(seed, n, width)`` for every m <= n.
    """
    out = np.empty((n, width))
    for chunk, start in enumerate(range(0, n, CHUNK_ROWS)):
        stream(seed, chunk).standard_normal(out=out[start : start + CHUNK_ROWS])
    return out
