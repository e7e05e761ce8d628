"""KV cache storage: in-place buffers, growth, snapshots, release."""

import numpy as np
import pytest

from repro.models import CausalLM, KVCache, get_model_config
from repro.quant import KVQuantConfig
from repro.shard import DeviceMesh, ShardedCausalLM
from repro.shard.partition import shard_weights


def _kv(rng, n, heads=2, head_dim=4):
    return (
        rng.standard_normal((1, heads, n, head_dim)),
        rng.standard_normal((1, heads, n, head_dim)),
    )


class TestBuffers:
    def test_appends_match_concatenation_through_growth(self):
        """Writing in place (and growing past the reserved capacity)
        holds exactly what concatenating the segments would."""
        rng = np.random.default_rng(0)
        cache = KVCache(2, capacity=3)
        segments = [_kv(rng, n) for n in (2, 1, 1, 4, 1)]
        for i, (k, v) in enumerate(segments):
            for layer in range(2):
                keys, values = cache.append(layer, k, v)
            want_k = np.concatenate([s[0] for s in segments[: i + 1]], axis=2)
            want_v = np.concatenate([s[1] for s in segments[: i + 1]], axis=2)
            assert keys.tobytes() == want_k.tobytes()
            assert values.tobytes() == want_v.tobytes()
        assert cache.seq_len == 9

    def test_capacity_is_reserved_once(self):
        rng = np.random.default_rng(1)
        cache = KVCache(1, capacity=8)
        keys, _ = cache.append(0, *_kv(rng, 3))
        base = keys.base
        for _ in range(5):
            keys, _ = cache.append(0, *_kv(rng, 1))
            assert keys.base is base  # no reallocation within capacity
        keys, _ = cache.append(0, *_kv(rng, 1))
        assert keys.base is not base  # the ninth position grew the buffer
        assert keys.shape[2] == 9

    def test_engine_sizes_the_cache_to_the_request(self):
        from repro.serve.engine import GenerationConfig, InferenceEngine

        model = CausalLM(get_model_config("llama-2-7b"), seed=0)
        engine = InferenceEngine(model)
        seq = engine.start_sequence(np.arange(10), GenerationConfig(max_new_tokens=5))
        engine.prefill(seq)
        base = seq.cache._keys[0]
        while not seq.done:
            engine.decode([seq])
        # Prompt + 4 fed-back tokens fill the buffer exactly, no growth.
        assert seq.cache._keys[0] is base
        assert base.shape[2] == seq.cache.seq_len == 14


class TestSnapshots:
    @pytest.mark.parametrize("capacity", [0, 64])
    def test_appends_never_write_the_snapshot(self, capacity):
        rng = np.random.default_rng(2)
        source = KVCache(3)
        for layer in range(3):
            source.append(layer, *_kv(rng, 6))
        snapshot = source.snapshot(4)
        before = [(k.tobytes(), v.tobytes()) for k, v in snapshot]
        seeded = [KVCache.from_snapshot(snapshot, capacity=capacity) for _ in range(2)]
        for cache in seeded:
            for _ in range(3):
                k, v = _kv(rng, 1)
                for layer in range(3):
                    keys, _ = cache.append(layer, k, v)
                    assert keys[:, :, :4].tobytes() == snapshot[layer][0].tobytes()
        assert [(k.tobytes(), v.tobytes()) for k, v in snapshot] == before
        assert all(cache.seq_len == 7 for cache in seeded)


class TestMemoryAndRelease:
    def test_memory_counts_used_positions_not_capacity(self):
        rng = np.random.default_rng(3)
        k, v = _kv(rng, 5)
        tight, roomy = KVCache(1), KVCache(1, capacity=100)
        tight.append(0, k, v)
        roomy.append(0, k, v)
        assert roomy.memory_bytes == tight.memory_bytes == 2 * 2 * 5 * 4 * 2

    def test_memory_reflects_kv_bits(self):
        rng = np.random.default_rng(4)
        k, v = _kv(rng, 5)
        q8 = KVCache(1, quant=KVQuantConfig(bits=8), capacity=50)
        q8.append(0, k, v)
        assert q8.memory_bytes == 2 * 2 * 5 * 4

    def test_release_empties_the_cache(self):
        rng = np.random.default_rng(5)
        cache = KVCache(2, capacity=10)
        for layer in range(2):
            cache.append(layer, *_kv(rng, 4))
        cache.release()
        assert cache.seq_len == 0 and cache.memory_bytes == 0
        assert cache._keys == [None, None]


class TestShardedKVCache:
    @pytest.fixture(scope="class")
    def sharded(self):
        model = CausalLM(get_model_config("llama-3-8b"), seed=0)
        mesh = DeviceMesh(tp=2)
        return ShardedCausalLM(model.config, mesh, shard_weights(model.weights, model.config, mesh))

    def test_memory_counts_used_positions_not_capacity(self, sharded):
        prompt = np.arange(6)
        _, tight = sharded.prefill(prompt)
        _, roomy = sharded.prefill(prompt, capacity=200)
        assert roomy.memory_bytes == tight.memory_bytes > 0
        assert roomy.caches[0][0]._keys[0].shape[2] == 200

    def test_release_frees_every_device(self, sharded):
        _, cache = sharded.prefill(np.arange(6), kv_quant=KVQuantConfig(bits=8, per_head=True))
        cache.release()
        assert cache.memory_bytes == 0 and cache.seq_len == 0
        assert all(c._keys[0] is None for row in cache.caches for c in row)
