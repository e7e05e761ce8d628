"""Batched decode against the one-sequence-at-a-time path.

The continuous batcher advances every running sequence with one
batched forward per step.  The contract is that this changes nothing a
request can observe: its token stream is byte-identical to generating
it alone, whatever it is batched with, whenever it arrives and however
the token budget splits the steps.  Hypothesis draws the prompt sets,
lengths, ``max_new_tokens``, budgets and arrival steps over three
engines:

* ``llama-2-7b`` with the prompt-prefix cache (shared system prompts);
* ``llama-3-8b`` (grouped-query attention) with int8 per-head KV;
* ``opt-1.3b`` on a two-way tensor-parallel :class:`ShardedEngine`,
  against the single-device engine.

A seeded-tempered leg replays the batcher's own step order one
sequence at a time on a same-seeded engine, and a row-invariance leg
asserts the batched logits rows equal batch-1 rows byte for byte, so a
BLAS whose results depend on the batch size fails here loudly.
"""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.models import CausalLM, get_model_config
from repro.quant import KVQuantConfig
from repro.serve.batching import ContinuousBatcher, Request
from repro.serve.engine import GenerationConfig, InferenceEngine
from repro.serve.prefix import PrefixKVCache
from repro.shard import DeviceMesh, ShardedCausalLM, ShardedEngine
from repro.shard.partition import shard_weights

KV_INT8 = KVQuantConfig(bits=8, per_head=True)
#: Shared system-prompt length of the prefix-cache leg (one block).
PREFIX_TOKENS = 16

SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def llama2():
    return CausalLM(get_model_config("llama-2-7b"), seed=0)


@pytest.fixture(scope="module")
def llama3():
    return CausalLM(get_model_config("llama-3-8b"), seed=0)


@pytest.fixture(scope="module")
def opt():
    return CausalLM(get_model_config("opt-1.3b"), seed=0)


def _sharded(model, tp=2):
    mesh = DeviceMesh(tp=tp)
    grid = shard_weights(model.weights, model.config, mesh)
    return ShardedCausalLM(model.config, mesh, grid)


# ----------------------------------------------------------------------
# Drawn request sets.
# ----------------------------------------------------------------------


@st.composite
def request_sets(draw, max_requests=6):
    """``(requests, max_batch_tokens)``; each request is
    ``(suffix_len, max_new_tokens, arrival_step, token_seed)``."""
    n = draw(st.integers(1, max_requests))
    requests = [
        (
            draw(st.integers(1, 20)),
            draw(st.integers(1, 8)),
            draw(st.integers(0, 4)),
            draw(st.integers(0, 2**16)),
        )
        for _ in range(n)
    ]
    budget = draw(st.integers(PREFIX_TOKENS + 20, 96))
    return requests, budget


def _prompts(requests, vocab, prefixes=None):
    """One prompt per drawn request; with ``prefixes``, each prompt
    starts with one of them (chosen by the request's seed)."""
    out = []
    for rid, (suffix_len, _, _, seed) in enumerate(requests):
        # Seeded per request id too, so no two prompts share a suffix.
        rng = np.random.default_rng((seed, rid))
        tail = rng.integers(0, vocab, size=suffix_len)
        if prefixes is not None:
            tail = np.concatenate([prefixes[seed % len(prefixes)], tail])
        out.append(tail)
    return out


def _serve(engine, requests, prompts, budget, temperature=0.0):
    """Drive the batcher, submitting each request at its arrival step;
    returns ``(streams by request id, step reports)``."""
    batcher = ContinuousBatcher(engine, max_batch_tokens=budget)
    reports = []
    step = 0
    while step <= max(r[2] for r in requests) or batcher.has_work:
        for rid, (req, prompt) in enumerate(zip(requests, prompts)):
            if req[2] == step:
                batcher.submit(
                    Request(
                        request_id=rid,
                        prompt=prompt,
                        generation=GenerationConfig(req[1], temperature),
                        submitted_at=1.0,
                    )
                )
        reports.append(batcher.step())
        step += 1
        assert step < 1000, "scheduler did not drain"
    streams = {}
    for rid in range(len(requests)):
        state = batcher.finished(rid)
        assert state.seq.cache is None, "finished request kept its KV cache"
        streams[rid] = state.seq.generated
    return streams, reports


def _alone(engine, requests, prompts):
    return {
        rid: engine.generate(prompt, GenerationConfig(req[1])).generated
        for rid, (req, prompt) in enumerate(zip(requests, prompts))
    }


# ----------------------------------------------------------------------
# Greedy streams: served == generated alone.
# ----------------------------------------------------------------------


class TestServedEqualsAlone:
    @SETTINGS
    @given(drawn=request_sets(), prefix_seed=st.integers(0, 2**16))
    def test_llama2_with_prefix_cache(self, llama2, drawn, prefix_seed):
        requests, budget = drawn
        vocab = llama2.config.sim_vocab
        rng = np.random.default_rng(prefix_seed)
        prefixes = [rng.integers(0, vocab, size=PREFIX_TOKENS) for _ in range(2)]
        prompts = _prompts(requests, vocab, prefixes)

        def warm_engine():
            # Both sides start with every shared prefix cached, so each
            # request hits the same prefix whatever the order.
            engine = InferenceEngine(llama2, prefix_cache=PrefixKVCache())
            for prefix in prefixes:
                engine.generate(np.append(prefix, 0), GenerationConfig(1))
            return engine

        served, _ = _serve(warm_engine(), requests, prompts, budget)
        assert served == _alone(warm_engine(), requests, prompts)

    @SETTINGS
    @given(drawn=request_sets())
    def test_llama3_gqa_int8_kv(self, llama3, drawn):
        requests, budget = drawn
        prompts = _prompts(requests, llama3.config.sim_vocab)
        served, _ = _serve(
            InferenceEngine(llama3, kv_quant=KV_INT8), requests, prompts, budget
        )
        alone = _alone(InferenceEngine(llama3, kv_quant=KV_INT8), requests, prompts)
        assert served == alone

    @SETTINGS
    @given(drawn=request_sets(max_requests=4))
    def test_opt_tp2_against_single_device(self, opt, drawn):
        requests, budget = drawn
        prompts = _prompts(requests, opt.config.sim_vocab)
        served, _ = _serve(ShardedEngine(_sharded(opt)), requests, prompts, budget)
        assert served == _alone(InferenceEngine(opt), requests, prompts)


# ----------------------------------------------------------------------
# Tempered streams: the engine RNG is drawn in the same order.
# ----------------------------------------------------------------------


class TestTemperedOrder:
    @SETTINGS
    @given(drawn=request_sets(), seed=st.integers(0, 2**16))
    def test_batched_matches_one_at_a_time_replay(self, llama3, drawn, seed):
        """Replaying the batcher's steps one sequence at a time (decodes
        in report order, then prefills) on a same-seeded engine gives
        the same tempered streams."""
        requests, budget = drawn
        prompts = _prompts(requests, llama3.config.sim_vocab)
        served, reports = _serve(
            InferenceEngine(llama3, kv_quant=KV_INT8, seed=seed),
            requests, prompts, budget, temperature=1.5,
        )
        engine = InferenceEngine(llama3, kv_quant=KV_INT8, seed=seed)
        seqs = {
            rid: engine.start_sequence(prompt, GenerationConfig(req[1], 1.5))
            for rid, (req, prompt) in enumerate(zip(requests, prompts))
        }
        for report in reports:
            for rid in report.decoded:
                engine.decode([seqs[rid]])
            for rid in report.prefilled:
                engine.prefill(seqs[rid])
        assert served == {rid: seq.generated for rid, seq in seqs.items()}


# ----------------------------------------------------------------------
# Logits rows: batched == batch-1, byte for byte.
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _model(name, tp):
    model = CausalLM(get_model_config(name), seed=0)
    return model if tp == 1 else _sharded(model, tp)


class TestRowInvariance:
    @pytest.mark.parametrize(
        "name, kv_quant, tp",
        [("llama-2-7b", None, 1), ("llama-3-8b", KV_INT8, 1), ("opt-1.3b", None, 2)],
    )
    @settings(max_examples=10, deadline=None)
    @given(lengths=st.lists(st.integers(1, 40), min_size=1, max_size=12),
           seed=st.integers(0, 2**16))
    def test_batched_rows_equal_batch1_rows(self, name, kv_quant, tp, lengths, seed):
        model = _model(name, tp)
        vocab = model.config.sim_vocab
        rng = np.random.default_rng(seed)
        prompts = [rng.integers(0, vocab, size=n) for n in lengths]
        batched = [model.prefill(p, kv_quant=kv_quant)[1] for p in prompts]
        alone = [model.prefill(p, kv_quant=kv_quant)[1] for p in prompts]
        for _ in range(2):  # the second step reads appended buffers
            tokens = rng.integers(0, vocab, size=len(prompts))
            rows = model.decode_step(tokens, batched)
            for i, cache in enumerate(alone):
                row = model.decode_step(tokens[i : i + 1], cache)[0]
                assert rows[i].tobytes() == row.tobytes(), f"row {i} of {len(prompts)}"
