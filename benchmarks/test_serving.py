"""Serving-path benchmarks: decode throughput and scheduler capacity.

Times the claims the serving subsystem makes — incremental KV-cache
decode beats repeated full forwards, the continuous batcher sustains
multi-request throughput, and one batched decode forward per step
scales tok/s with the batch — and writes the measured numbers to
``BENCH_serve.json`` next to this file.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.models import CausalLM, get_model_config
from repro.quant import QuantConfig
from repro.serve import (
    ContinuousBatcher,
    GenerationConfig,
    InferenceEngine,
    Request,
    hardware_report,
    load_artifact,
    save_artifact,
)

_RESULTS_PATH = Path(__file__).parent / "BENCH_serve.json"
_PROMPT_LEN = 48
_GEN_LEN = 48
#: Batch sizes, prompt length and output length of the decode scaling
#: record.
_SCALING_BATCHES = (1, 8, 32)
_SCALING_PROMPT = 16
_SCALING_NEW = 33

_results = {}


@pytest.fixture(scope="module")
def engine(tmp_path_factory):
    """An engine over a packed-and-reloaded bitmod_fp4 model."""
    model = CausalLM(get_model_config("opt-1.3b"), seed=0)
    path = tmp_path_factory.mktemp("artifact") / "opt.rsrv"
    save_artifact(path, model, QuantConfig(dtype="bitmod_fp4"))
    return InferenceEngine.from_artifact(load_artifact(path))


def _decode_full_forward(model, prompt, n_tokens):
    """The naive serving loop: recompute the whole sequence per token."""
    tokens = list(prompt)
    for _ in range(n_tokens):
        row = model.logits(np.array(tokens))[0, -1]
        tokens.append(int(np.argmax(row)))
    return tokens[len(prompt):]


def test_incremental_vs_full_forward_decode(run_once, engine):
    """Incremental KV-cache decode must beat per-token full forwards."""
    prompt = np.arange(_PROMPT_LEN) % engine.model.config.sim_vocab
    gen_cfg = GenerationConfig(max_new_tokens=_GEN_LEN)

    t0 = time.perf_counter()
    slow_tokens = _decode_full_forward(engine.model, prompt, _GEN_LEN)
    full_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    seq = run_once(engine.generate, prompt, gen_cfg)
    incr_s = time.perf_counter() - t0

    assert seq.generated == slow_tokens  # same greedy stream
    assert incr_s < full_s, "KV-cache decode slower than full forwards"
    _results["incremental_decode"] = {
        "prompt_len": _PROMPT_LEN,
        "gen_len": _GEN_LEN,
        "full_forward_s": full_s,
        "incremental_s": incr_s,
        "speedup": full_s / incr_s,
        "decode_tokens_per_s": _GEN_LEN / incr_s,
    }


def test_batch_scheduler_throughput(engine):
    """Continuous batching over 16 staggered requests."""
    batcher = ContinuousBatcher(engine, max_batch_tokens=128)
    rng = np.random.default_rng(0)
    n_requests = 16
    t0 = time.perf_counter()
    for rid in range(n_requests):
        batcher.submit(
            Request(
                request_id=rid,
                prompt=rng.integers(0, 2048, size=int(rng.integers(8, 32))),
                generation=GenerationConfig(max_new_tokens=16),
                submitted_at=time.monotonic(),
            )
        )
    batcher.run_until_idle()
    wall_s = time.perf_counter() - t0
    m = batcher.metrics
    assert m.completed == n_requests
    _results["batch_scheduler"] = {
        "n_requests": n_requests,
        "max_batch_tokens": batcher.max_batch_tokens,
        "wall_s": wall_s,
        "generated_tokens": m.decode_tokens,
        "generated_tokens_per_s": m.decode_tokens / wall_s,
        "total_tokens_per_s": m.total_tokens / wall_s,
        "ttft_p95_s": m.ttft.percentile(95),
        "latency_p95_s": m.latency.percentile(95),
    }


def _host():
    """nproc, numpy and BLAS of this run — a tok/s figure is only
    comparable on the same host."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def test_decode_batch_scaling(engine):
    """Decode tok/s through the continuous batcher at batch 1, 8, 32.

    Every step decodes all running sequences in one forward, so the
    per-step cost grows far slower than the batch; the streams must
    still equal each request generated alone.
    """
    rng = np.random.default_rng(1)
    vocab = engine.model.config.sim_vocab
    scaling = {}
    for batch in _SCALING_BATCHES:
        prompts = [rng.integers(0, vocab, size=_SCALING_PROMPT) for _ in range(batch)]
        batcher = ContinuousBatcher(engine, max_batch_tokens=batch * _SCALING_PROMPT)
        for rid, prompt in enumerate(prompts):
            batcher.submit(Request(rid, prompt, GenerationConfig(_SCALING_NEW), submitted_at=1.0))
        batcher.step()  # every prompt prefills in the first step
        t0 = time.perf_counter()
        batcher.run_until_idle()
        decode_s = time.perf_counter() - t0
        tokens = batch * (_SCALING_NEW - 1)
        scaling[str(batch)] = {
            "decode_tokens": tokens,
            "decode_s": decode_s,
            "decode_tok_per_s": tokens / decode_s,
            "step_ms": decode_s / (_SCALING_NEW - 1) * 1e3,
        }
        for rid in (0, batch - 1):
            alone = engine.generate(prompts[rid], GenerationConfig(_SCALING_NEW))
            assert batcher.finished(rid).seq.generated == alone.generated
    rates = [scaling[str(b)]["decode_tok_per_s"] for b in _SCALING_BATCHES]
    assert rates[-1] > rates[0], "batched decode no faster than batch 1"
    _results["decode_batch_scaling"] = {
        "model": engine.model.config.name,
        "prompt_len": _SCALING_PROMPT,
        "max_new_tokens": _SCALING_NEW,
        "batches": scaling,
        "host": _host(),
    }


def test_modeled_hardware_cost(engine):
    """Accelerator-modeled energy for a reference request mix."""
    from repro.serve import RequestTrace

    traces = [RequestTrace(prompt_len=_PROMPT_LEN, gen_len=_GEN_LEN)] * 8
    report = hardware_report("opt-1.3b", traces, weight_bits=4.125)
    _results["modeled_hardware"] = {
        "accelerator": report.accelerator,
        "weight_bits": report.weight_bits,
        "energy_per_request_uj": report.energy_per_request_uj,
        "time_per_request_ms": report.total_time_ms / report.n_requests,
    }


def test_zz_write_results():
    """Persist the collected numbers (runs last by name)."""
    assert _results, "no serving benchmarks ran"
    _RESULTS_PATH.write_text(json.dumps(_results, indent=2) + "\n")
