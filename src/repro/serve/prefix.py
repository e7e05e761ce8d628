"""Prefix-sharing KV reuse: a block-aligned prompt-prefix cache.

Shared-prefix traffic — chat turns over one system prompt, few-shot
templates, retrieval headers — re-prefills the same leading tokens on
every request.  :class:`PrefixKVCache` stores the per-layer K/V
tensors of *block-aligned* prompt prefixes so a later request whose
prompt starts with a cached prefix seeds its
:class:`~repro.models.transformer.KVCache` from the snapshot and runs
prefill only over the uncached tail (radix-style lookup: longest
cached block chain wins).

Correctness contract
    Chunked prefill (cached prefix + tail) reproduces the full-prompt
    forward up to float64 rounding (~1e-15, from BLAS shape-dependent
    accumulation order), which leaves greedy *decode outputs
    byte-identical* to the cache-disabled path — the same tolerance
    class the incremental KV decode path already stands on.  Prefix
    reuse is disabled when the engine quantizes its KV cache: KV
    quantization is per-prefill-segment, so splitting the prompt would
    change the stored values, not just their rounding.

Memory
    Entries hold copied slices and share nothing with live sequences
    (a :class:`KVCache` seeded from a snapshot copies it into a buffer
    of its own at its first append, so snapshot arrays are never
    written).  The cache is a byte-budgeted LRU like the kernel decode
    cache: ``$REPRO_PREFIX_CACHE_MB`` (default 64) bounds it, oversize
    prefixes pass through uncached, and hit/miss/insert/eviction counts
    mirror into :mod:`repro.obs` (``serve.prefix_cache.*`` counters +
    ``serve.prefix_cache.bytes``).
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs

__all__ = ["PrefixKVCache", "DEFAULT_BUDGET_MB", "DEFAULT_BLOCK_TOKENS"]

#: Default byte budget when ``$REPRO_PREFIX_CACHE_MB`` is unset.
DEFAULT_BUDGET_MB = 64.0
#: Prefix lengths are quantized to multiples of this many tokens.
DEFAULT_BLOCK_TOKENS = 16

Snapshot = List[Tuple[np.ndarray, np.ndarray]]


def _env_budget_bytes() -> int:
    raw = os.environ.get("REPRO_PREFIX_CACHE_MB", "")
    try:
        mb = float(raw) if raw else DEFAULT_BUDGET_MB
    except ValueError:
        mb = DEFAULT_BUDGET_MB
    return max(0, int(mb * 1024 * 1024))


def _snapshot_nbytes(snapshot: Snapshot) -> int:
    return sum(int(k.nbytes) + int(v.nbytes) for k, v in snapshot)


class PrefixKVCache:
    """LRU of block-aligned prompt prefixes → per-layer K/V snapshots.

    Keys are the exact token bytes of the prefix, so a hit can only
    ever replay KV that belongs to the same leading tokens; different
    models/engines must not share one instance (token bytes alone
    don't cover the weights).
    """

    def __init__(
        self,
        block_tokens: int = DEFAULT_BLOCK_TOKENS,
        budget_bytes: Optional[int] = None,
    ):
        if block_tokens < 1:
            raise ValueError("block_tokens must be at least 1")
        self.block_tokens = int(block_tokens)
        self.budget_bytes = (
            _env_budget_bytes() if budget_bytes is None else int(budget_bytes)
        )
        # key -> (snapshot, nbytes); insertion order is LRU order.
        self._entries: "OrderedDict[bytes, Tuple[Snapshot, int]]" = OrderedDict()
        self.total_bytes = 0
        self.hits = 0
        self.misses = 0
        self.inserts = 0
        self.evictions = 0
        self.oversize = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _key(prompt: np.ndarray, length: int) -> bytes:
        return np.ascontiguousarray(prompt[:length], dtype=np.int64).tobytes()

    def _aligned_lengths(self, max_len: int) -> List[int]:
        """Block-aligned candidate lengths ≤ ``max_len``, longest first."""
        longest = (max_len // self.block_tokens) * self.block_tokens
        return list(range(longest, 0, -self.block_tokens))

    # ------------------------------------------------------------------
    def match_len(self, prompt: np.ndarray) -> int:
        """Longest cached block-aligned strict prefix of ``prompt``
        (0 = none).  A peek: no counters, no LRU reordering."""
        prompt = np.asarray(prompt).reshape(-1)
        for length in self._aligned_lengths(int(prompt.size) - 1):
            if self._key(prompt, length) in self._entries:
                return length
        return 0

    def lookup(self, prompt: np.ndarray) -> Optional[Tuple[int, Snapshot]]:
        """The longest cached prefix of ``prompt`` and its snapshot.

        Matches only *strict* prefixes (at least one prompt token is
        left to prefill, so the caller can still sample a first token
        from its own forward pass).  Counts a hit or miss and
        refreshes the entry's LRU position.
        """
        prompt = np.asarray(prompt).reshape(-1)
        for length in self._aligned_lengths(int(prompt.size) - 1):
            key = self._key(prompt, length)
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                obs.counter("serve.prefix_cache.hits").inc()
                return length, entry[0]
        self.misses += 1
        obs.counter("serve.prefix_cache.misses").inc()
        return None

    def insert(self, prompt: np.ndarray, cache) -> int:
        """Snapshot the longest block-aligned prefix of ``prompt`` out
        of its just-prefilled ``cache``; returns the stored length
        (0 = nothing stored).  Re-inserting an existing prefix only
        refreshes its LRU position."""
        prompt = np.asarray(prompt).reshape(-1)
        length = (int(prompt.size) // self.block_tokens) * self.block_tokens
        if length < self.block_tokens:
            return 0
        key = self._key(prompt, length)
        if key in self._entries:
            self._entries.move_to_end(key)
            return length
        snapshot = cache.snapshot(length)
        nbytes = _snapshot_nbytes(snapshot)
        if nbytes > self.budget_bytes:
            self.oversize += 1
            obs.counter("serve.prefix_cache.oversize").inc()
            return 0
        while self._entries and self.total_bytes + nbytes > self.budget_bytes:
            self._evict_lru()
        self._entries[key] = (snapshot, nbytes)
        self.total_bytes += nbytes
        self.inserts += 1
        obs.counter("serve.prefix_cache.inserts").inc()
        obs.gauge("serve.prefix_cache.bytes").set(self.total_bytes)
        return length

    def clear(self) -> None:
        self._entries.clear()
        self.total_bytes = 0
        obs.gauge("serve.prefix_cache.bytes").set(0)

    # ------------------------------------------------------------------
    def _evict_lru(self) -> None:
        _, (_, nbytes) = self._entries.popitem(last=False)
        self.total_bytes -= nbytes
        self.evictions += 1
        obs.counter("serve.prefix_cache.evictions").inc()
        obs.gauge("serve.prefix_cache.bytes").set(self.total_bytes)

    def stats(self) -> Dict[str, float]:
        total = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "bytes": self.total_bytes,
            "budget_bytes": self.budget_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / total if total else 0.0,
            "inserts": self.inserts,
            "evictions": self.evictions,
            "oversize": self.oversize,
        }
