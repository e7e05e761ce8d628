"""Batched quantized-inference serving for the BitMoD reproduction.

The deployment path the paper motivates, end to end:

``artifact``
    A versioned on-disk container holding every bit-packed
    :class:`~repro.quant.packing.PackedTensor` of a quantized
    :class:`~repro.models.transformer.CausalLM` plus the FP16
    leftovers (embeddings, norms, LM head) and the quantization
    policy.  Round-trips byte-exactly.
``engine``
    Loads an artifact and runs incremental prefill/decode against the
    model's :class:`~repro.models.transformer.KVCache` — O(1) forward
    work per generated token instead of recomputing the sequence.
``batching``
    A continuous-batching scheduler: token-budgeted steps interleaving
    prefills of waiting requests with one batched decode forward over
    the running ones, with strict-priority SLO tiers (``SLO_TIERS``)
    and queue-depth-aware admission shedding; a finished or expired
    request frees its KV cache at once.
``prefix``
    Prefix-sharing KV reuse: a byte-budgeted LRU of block-aligned
    prompt prefixes so shared-prefix traffic skips repeated prefill.
``server``
    The asyncio front-end (``submit()`` / ``generate()``) driving the
    scheduler from a background loop.
``metrics``
    Throughput, time-to-first-token, and latency percentiles.
``errors``
    Structured degradation: :class:`DeadlineExceeded` when a request's
    deadline passes, :class:`Overloaded` when the bounded admission
    queue sheds it or the server is draining.
``bridge``
    Replays served-request traces through the accelerator simulator
    to report modeled cycles and energy per request.
"""

from repro.serve.artifact import (
    ARTIFACT_VERSION,
    ArtifactIntegrityError,
    ModelArtifact,
    load_artifact,
    pack_model,
    pack_tensor_cached,
    save_artifact,
)
from repro.serve.batching import SLO_TIERS, ContinuousBatcher, Request, StepReport
from repro.serve.prefix import PrefixKVCache
from repro.serve.errors import DeadlineExceeded, Overloaded, ServeError
from repro.serve.bridge import (
    FunctionalReplay,
    HardwareReport,
    RequestTrace,
    functional_replay,
    hardware_report,
)
from repro.serve.engine import GenerationConfig, InferenceEngine, SequenceState
from repro.serve.metrics import LatencyStats, ServeMetrics
from repro.serve.server import GenerationResult, ServeServer

__all__ = [
    "ARTIFACT_VERSION",
    "ArtifactIntegrityError",
    "ServeError",
    "DeadlineExceeded",
    "Overloaded",
    "ModelArtifact",
    "pack_model",
    "pack_tensor_cached",
    "save_artifact",
    "load_artifact",
    "InferenceEngine",
    "GenerationConfig",
    "SequenceState",
    "ContinuousBatcher",
    "PrefixKVCache",
    "Request",
    "SLO_TIERS",
    "StepReport",
    "ServeServer",
    "GenerationResult",
    "ServeMetrics",
    "LatencyStats",
    "RequestTrace",
    "HardwareReport",
    "hardware_report",
    "FunctionalReplay",
    "functional_replay",
]
