"""Incremental KV-cache decode vs. the full-forward reference."""

import numpy as np
import pytest

from repro.models import CausalLM, KVCache, get_model_config, list_models
from repro.quant import KVQuantConfig, QuantConfig
from repro.serve.artifact import save_artifact
from repro.serve.engine import GenerationConfig, InferenceEngine


@pytest.fixture(scope="module")
def model():
    return CausalLM(get_model_config("llama-2-7b"), seed=0)


def _incremental_rows(model, prompt, continuation, kv_quant=None):
    """Last-position logits after the prompt and after each new token."""
    logits, cache = model.prefill(prompt, kv_quant=kv_quant)
    rows = [logits[0, -1]]
    for tok in continuation:
        rows.append(model.decode_step(np.array([tok]), cache)[0])
    return np.stack(rows), cache


class TestDecodeMatchesFullForward:
    @pytest.mark.parametrize("name", list_models())
    def test_logits_allclose_every_model(self, name):
        """Prefill + per-token decode reproduces the monolithic forward
        pass across every architecture family (LN/RoPE/GQA)."""
        m = CausalLM(get_model_config(name), seed=0)
        rng = np.random.default_rng(7)
        prompt = rng.integers(0, m.config.sim_vocab, size=10)
        cont = rng.integers(0, m.config.sim_vocab, size=5)
        ref = m.logits(np.concatenate([prompt, cont]))[0]
        rows, cache = _incremental_rows(m, prompt, cont)
        for i, row in enumerate(rows):
            np.testing.assert_allclose(
                row, ref[len(prompt) - 1 + i], rtol=1e-8, atol=1e-8
            )
        assert cache.seq_len == len(prompt) + len(cont)

    def test_quantized_weights_decode_matches(self, tmp_path, model):
        """The served (packed, reloaded) model decodes to the same
        logits as its own full forward."""
        from repro.serve.artifact import load_artifact

        save_artifact(tmp_path / "m.rsrv", model, QuantConfig(dtype="bitmod_fp4"))
        served = load_artifact(tmp_path / "m.rsrv").instantiate()
        rng = np.random.default_rng(3)
        prompt = rng.integers(0, served.config.sim_vocab, size=12)
        cont = rng.integers(0, served.config.sim_vocab, size=4)
        ref = served.logits(np.concatenate([prompt, cont]))[0]
        rows, _ = _incremental_rows(served, prompt, cont)
        for i, row in enumerate(rows):
            np.testing.assert_allclose(
                row, ref[len(prompt) - 1 + i], rtol=1e-8, atol=1e-8
            )

    def test_batched_decode(self, model):
        """decode_step handles several independent sequences at once,
        each against its own cache (of a different length)."""
        rng = np.random.default_rng(1)
        prompts = [rng.integers(0, model.config.sim_vocab, size=n) for n in (8, 5, 11)]
        caches = [model.prefill(p)[1] for p in prompts]
        next_tokens = rng.integers(0, model.config.sim_vocab, size=3)
        rows = model.decode_step(next_tokens, caches)
        assert rows.shape == (3, model.config.sim_vocab)
        for b in range(3):
            full = model.logits(np.concatenate([prompts[b], next_tokens[b : b + 1]]))
            np.testing.assert_allclose(rows[b], full[0, -1], rtol=1e-8, atol=1e-8)
            assert caches[b].seq_len == len(prompts[b]) + 1

    def test_decode_rejects_mismatched_caches(self, model):
        caches = [model.prefill(np.arange(4))[1]]
        with pytest.raises(ValueError, match="caches for a batch of 2"):
            model.decode_step(np.array([1, 2]), caches)


class TestQuantizedKVCache:
    def test_int8_kv_stays_close(self, model):
        rng = np.random.default_rng(5)
        prompt = rng.integers(0, model.config.sim_vocab, size=16)
        cont = rng.integers(0, model.config.sim_vocab, size=4)
        exact, _ = _incremental_rows(model, prompt, cont)
        q8, _ = _incremental_rows(model, prompt, cont, kv_quant=KVQuantConfig(bits=8))
        for a, b in zip(exact, q8):
            assert np.corrcoef(a, b)[0, 1] > 0.99

    def test_lower_kv_bits_hurt_more(self, model):
        rng = np.random.default_rng(5)
        prompt = rng.integers(0, model.config.sim_vocab, size=16)
        exact, _ = _incremental_rows(model, prompt, [])
        e = {}
        for bits in (8, 4):
            rows, _ = _incremental_rows(
                model, prompt, [], kv_quant=KVQuantConfig(bits=bits)
            )
            e[bits] = float(np.mean((rows - exact) ** 2))
        assert e[4] > e[8] > 0

    def test_cache_memory_reflects_bits(self, model):
        rng = np.random.default_rng(5)
        prompt = rng.integers(0, model.config.sim_vocab, size=16)
        _, fp = _incremental_rows(model, prompt, [])
        _, q8 = _incremental_rows(model, prompt, [], kv_quant=KVQuantConfig(bits=8))
        assert q8.memory_bytes * 2 == fp.memory_bytes

    def test_collect_rejects_cache(self, model):
        with pytest.raises(ValueError):
            model.hidden_states(np.arange(4), collect=True, cache=KVCache(4))


class TestEngine:
    def test_greedy_generation_deterministic(self, model):
        engine = InferenceEngine(model)
        prompt = np.arange(6)
        a = engine.generate(prompt, GenerationConfig(max_new_tokens=6))
        b = engine.generate(prompt, GenerationConfig(max_new_tokens=6))
        assert a.generated == b.generated
        assert len(a.generated) == 6

    def test_greedy_matches_full_forward_argmax(self, model):
        """The engine's token stream equals greedy decoding done the
        slow way (full forward each step)."""
        engine = InferenceEngine(model)
        prompt = np.arange(8)
        seq = engine.generate(prompt, GenerationConfig(max_new_tokens=5))
        tokens = list(prompt)
        slow = []
        for _ in range(5):
            row = model.logits(np.array(tokens))[0, -1]
            nxt = int(np.argmax(row))
            slow.append(nxt)
            tokens.append(nxt)
        assert seq.generated == slow

    def test_temperature_sampling_uses_rng(self, model):
        a = InferenceEngine(model, seed=0).generate(
            np.arange(6), GenerationConfig(max_new_tokens=8, temperature=2.0)
        )
        b = InferenceEngine(model, seed=0).generate(
            np.arange(6), GenerationConfig(max_new_tokens=8, temperature=2.0)
        )
        c = InferenceEngine(model, seed=1).generate(
            np.arange(6), GenerationConfig(max_new_tokens=8, temperature=2.0)
        )
        assert a.generated == b.generated  # same seed reproduces
        assert a.generated != c.generated  # different seed diverges

    def test_prompt_validation(self, model):
        engine = InferenceEngine(model)
        with pytest.raises(ValueError):
            engine.start_sequence(np.array([], dtype=np.int64))
        with pytest.raises(ValueError):
            engine.start_sequence(np.array([model.config.sim_vocab + 1]))

    def test_lifecycle_errors(self, model):
        engine = InferenceEngine(model)
        seq = engine.start_sequence(np.arange(4), GenerationConfig(max_new_tokens=1))
        with pytest.raises(RuntimeError):
            engine.decode([seq])  # decode before prefill
        engine.prefill(seq)
        with pytest.raises(RuntimeError):
            engine.prefill(seq)  # double prefill
        assert seq.done
        with pytest.raises(RuntimeError):
            engine.decode([seq])  # decode after completion
