"""Prefix-sharing KV cache: LRU/budget mechanics and engine integration."""

import dataclasses

import numpy as np
import pytest

from repro.models import CausalLM, get_model_config
from repro.quant.kv import KVQuantConfig
from repro.serve import InferenceEngine, PrefixKVCache
from repro.serve.engine import GenerationConfig
from repro.serve.prefix import DEFAULT_BLOCK_TOKENS


class FakeKV:
    """Stands in for a prefilled KVCache: snapshot() of known size."""

    def __init__(self, bytes_per_token: int = 8):
        self.bytes_per_token = bytes_per_token

    def snapshot(self, length: int):
        half = max(self.bytes_per_token // 2 // 8, 1)  # float64 elements
        k = np.zeros((1, 1, length, half))
        return [(k, k.copy())]


def _prompt(n, start=0):
    return np.arange(start, start + n, dtype=np.int64)


class TestLookupSemantics:
    def test_insert_stores_block_aligned_length(self):
        cache = PrefixKVCache(block_tokens=16)
        assert cache.insert(_prompt(40), FakeKV()) == 32
        assert len(cache) == 1

    def test_lookup_returns_longest_strict_prefix(self):
        cache = PrefixKVCache(block_tokens=16)
        cache.insert(_prompt(40), FakeKV())  # stores 16 and... no: stores 32 only
        hit = cache.lookup(_prompt(40))
        assert hit is not None
        length, snapshot = hit
        assert length == 32
        assert snapshot[0][0].shape[2] == 32

    def test_strict_prefix_leaves_a_tail_token(self):
        # A 32-token prompt must NOT match a 32-token entry even when
        # one exists: the caller needs at least one tail token to
        # forward itself and sample the first output.
        cache = PrefixKVCache(block_tokens=16)
        cache.insert(_prompt(36), FakeKV())  # stores the 32-token prefix
        cache.insert(_prompt(20), FakeKV())  # stores the 16-token prefix
        length, _ = cache.lookup(_prompt(32))
        assert length == 16

    def test_short_prompt_stores_nothing(self):
        cache = PrefixKVCache(block_tokens=16)
        assert cache.insert(_prompt(15), FakeKV()) == 0
        assert len(cache) == 0

    def test_different_tokens_never_match(self):
        cache = PrefixKVCache(block_tokens=4)
        cache.insert(_prompt(8), FakeKV())
        assert cache.lookup(_prompt(8, start=100)) is None
        assert cache.misses == 1

    def test_match_len_is_a_pure_peek(self):
        cache = PrefixKVCache(block_tokens=4)
        cache.insert(_prompt(8), FakeKV())
        hits, misses = cache.hits, cache.misses
        assert cache.match_len(_prompt(9)) == 8
        assert cache.match_len(_prompt(3)) == 0
        assert (cache.hits, cache.misses) == (hits, misses)

    def test_hit_miss_counters_and_stats(self):
        cache = PrefixKVCache(block_tokens=4)
        cache.insert(_prompt(8), FakeKV())
        cache.lookup(_prompt(9))  # hit (8)
        cache.lookup(_prompt(4, start=50))  # miss
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["entries"] == 1
        assert stats["inserts"] == 1

    def test_default_block_size_exported(self):
        assert PrefixKVCache().block_tokens == DEFAULT_BLOCK_TOKENS


class TestBudgetAndLRU:
    def test_byte_budget_evicts_lru(self):
        kv = FakeKV(bytes_per_token=16)
        per_entry = sum(a.nbytes + b.nbytes for a, b in kv.snapshot(4))
        cache = PrefixKVCache(block_tokens=4, budget_bytes=2 * per_entry)
        cache.insert(_prompt(4, start=0), kv)
        cache.insert(_prompt(4, start=10), kv)
        cache.insert(_prompt(4, start=20), kv)  # evicts the oldest
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.total_bytes <= cache.budget_bytes
        assert cache.match_len(_prompt(5, start=0)) == 0  # evicted
        assert cache.match_len(_prompt(5, start=20)) == 4

    def test_lookup_refreshes_lru_position(self):
        kv = FakeKV(bytes_per_token=16)
        per_entry = sum(a.nbytes + b.nbytes for a, b in kv.snapshot(4))
        cache = PrefixKVCache(block_tokens=4, budget_bytes=2 * per_entry)
        cache.insert(_prompt(4, start=0), kv)
        cache.insert(_prompt(4, start=10), kv)
        cache.lookup(_prompt(5, start=0))  # entry 0 is now most recent
        cache.insert(_prompt(4, start=20), kv)
        assert cache.match_len(_prompt(5, start=0)) == 4  # survived
        assert cache.match_len(_prompt(5, start=10)) == 0  # evicted

    def test_oversize_snapshot_passes_through(self):
        cache = PrefixKVCache(block_tokens=4, budget_bytes=8)
        assert cache.insert(_prompt(4), FakeKV(bytes_per_token=1024)) == 0
        assert len(cache) == 0
        assert cache.oversize == 1

    def test_reinsert_refreshes_without_duplicating(self):
        cache = PrefixKVCache(block_tokens=4)
        cache.insert(_prompt(8), FakeKV())
        before = cache.total_bytes
        assert cache.insert(_prompt(8), FakeKV()) == 8
        assert len(cache) == 1
        assert cache.total_bytes == before
        assert cache.inserts == 1

    def test_clear_resets_storage(self):
        cache = PrefixKVCache(block_tokens=4)
        cache.insert(_prompt(8), FakeKV())
        cache.clear()
        assert len(cache) == 0
        assert cache.total_bytes == 0

    def test_env_budget_parsed(self, monkeypatch):
        monkeypatch.setenv("REPRO_PREFIX_CACHE_MB", "2")
        assert PrefixKVCache().budget_bytes == 2 * 1024 * 1024
        monkeypatch.setenv("REPRO_PREFIX_CACHE_MB", "garbage")
        assert PrefixKVCache().budget_bytes == 64 * 1024 * 1024

    def test_invalid_block_tokens_rejected(self):
        with pytest.raises(ValueError):
            PrefixKVCache(block_tokens=0)


@pytest.fixture(scope="module")
def small_model_config():
    return dataclasses.replace(
        get_model_config("opt-1.3b"),
        sim_layers=2,
        sim_hidden=64,
        sim_heads=4,
        sim_kv_heads=4,
        sim_intermediate=128,
        sim_vocab=512,
    )


class TestEngineIntegration:
    def test_shared_prefix_outputs_byte_identical(self, small_model_config):
        """The acceptance bar: cached-prefix decode streams equal the
        cache-disabled path token for token."""
        rng = np.random.default_rng(0)
        prefix = rng.integers(0, 512, size=48)
        prompts = [
            np.concatenate([prefix, rng.integers(0, 512, size=n)])
            for n in (5, 9, 13, 7)
        ]
        gen = GenerationConfig(max_new_tokens=12)

        plain = InferenceEngine(CausalLM(small_model_config, seed=0))
        shared = InferenceEngine(
            CausalLM(small_model_config, seed=0), prefix_cache=PrefixKVCache()
        )
        reused = 0
        for prompt in prompts:
            baseline = plain.generate(prompt, gen).generated
            seq = shared.start_sequence(prompt, gen)
            shared.prefill(seq)
            while not seq.done:
                shared.decode([seq])
            assert seq.generated == baseline
            reused += seq.prefix_hit_tokens
        stats = shared.prefix_cache.stats()
        assert stats["hits"] >= len(prompts) - 1
        # Later requests actually skipped prefill work.
        assert reused >= 48 * (len(prompts) - 1)

    def test_prefix_hit_tokens_recorded(self, small_model_config):
        engine = InferenceEngine(
            CausalLM(small_model_config, seed=0), prefix_cache=PrefixKVCache()
        )
        prefix = np.arange(32, dtype=np.int64)
        first = engine.start_sequence(np.concatenate([prefix, [40, 41]]))
        engine.prefill(first)
        assert first.prefix_hit_tokens == 0  # cold
        second = engine.start_sequence(np.concatenate([prefix, [60, 61, 62]]))
        engine.prefill(second)
        assert second.prefix_hit_tokens == 32

    def test_kv_quant_disables_prefix_reuse(self, small_model_config):
        cache = PrefixKVCache()
        engine = InferenceEngine(
            CausalLM(small_model_config, seed=0),
            kv_quant=KVQuantConfig(bits=8),
            prefix_cache=cache,
        )
        prompt = np.arange(40, dtype=np.int64)
        for _ in range(2):
            seq = engine.start_sequence(prompt, GenerationConfig(max_new_tokens=2))
            engine.prefill(seq)
            assert seq.prefix_hit_tokens == 0
        assert len(cache) == 0
        assert cache.hits == 0 and cache.misses == 0
