"""The inference engine: incremental decode over a packed model.

The engine owns one dequantized :class:`CausalLM` (usually rebuilt
from a :class:`~repro.serve.artifact.ModelArtifact`) and advances
independent sequences through it.  Each sequence carries its own
:class:`~repro.models.transformer.KVCache`, so a decode step costs a
single-position forward pass — O(1) in the generated length — where
the monolithic ``CausalLM.logits`` path recomputes the whole sequence
every token.  :meth:`InferenceEngine.decode` advances a whole list of
sequences with one batched forward; each sequence's logits row is the
one a batch-1 forward would give, byte for byte, so what a request
generates does not depend on who it is batched with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.models.layers import softmax
from repro.models.transformer import CausalLM, KVCache
from repro.quant.kv import KVQuantConfig
from repro.serve.artifact import ModelArtifact, load_artifact
from repro.serve.prefix import PrefixKVCache

__all__ = ["GenerationConfig", "SequenceState", "InferenceEngine"]


@dataclass(frozen=True)
class GenerationConfig:
    """Per-request sampling parameters."""

    max_new_tokens: int = 32
    #: 0 = greedy argmax; > 0 samples from the tempered distribution.
    temperature: float = 0.0


@dataclass
class SequenceState:
    """One in-flight sequence: prompt, cache, generated tokens."""

    prompt: np.ndarray
    generation: GenerationConfig
    cache: Optional[KVCache] = None
    generated: List[int] = field(default_factory=list)
    #: Prompt tokens whose KV came from the engine's prefix cache
    #: instead of being recomputed at prefill (0 = cold prefill).
    prefix_hit_tokens: int = 0

    @property
    def prefilled(self) -> bool:
        # Prefill always samples the first token.
        return bool(self.generated)

    @property
    def done(self) -> bool:
        return len(self.generated) >= self.generation.max_new_tokens

    @property
    def last_token(self) -> int:
        return self.generated[-1] if self.generated else int(self.prompt[-1])

    @property
    def total_len(self) -> int:
        return len(self.prompt) + len(self.generated)

    @property
    def kv_capacity(self) -> int:
        """Positions the cache ever holds: the prompt plus every
        generated token but the last, which is never fed back."""
        return len(self.prompt) + self.generation.max_new_tokens - 1

    def release(self) -> None:
        """Free the KV cache (on finish or expiry); the generated
        tokens stay readable."""
        if self.cache is not None:
            self.cache.release()
            self.cache = None


class InferenceEngine:
    """Prefill/decode executor over a (quantized) model."""

    def __init__(
        self,
        model: CausalLM,
        kv_quant: Optional[KVQuantConfig] = None,
        seed: int = 0,
        artifact: Optional[ModelArtifact] = None,
        prefix_cache: Optional[PrefixKVCache] = None,
    ):
        self.model = model
        self.kv_quant = kv_quant
        #: The packed artifact this engine was built from, when known —
        #: keeps the bit-packed weight images around for bit-accurate
        #: hardware replay alongside the dequantized serving weights.
        self.artifact = artifact
        #: Prompt-prefix KV reuse (see :mod:`repro.serve.prefix`).
        #: Only consulted when ``kv_quant`` is None: KV quantization is
        #: per-prefill-segment, so splitting the prompt at a cached
        #: prefix boundary would change the stored values.
        self.prefix_cache = prefix_cache
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    # Construction from artifacts.
    # ------------------------------------------------------------------
    @classmethod
    def from_artifact(
        cls,
        artifact: ModelArtifact,
        seed: int = 0,
        prefix_cache: Optional[PrefixKVCache] = None,
        mesh=None,
    ) -> "InferenceEngine":
        """Instantiate the packed model and wrap it in an engine.

        With a :class:`~repro.shard.mesh.DeviceMesh`, the artifact is
        partitioned and a :class:`~repro.shard.engine.ShardedEngine`
        comes back instead (same sequence API; prefix caching is
        rejected there — see ``repro.shard.engine``).
        """
        if mesh is not None and mesh.n_devices > 1:
            from repro.shard.engine import ShardedEngine

            return ShardedEngine.from_artifact(
                artifact, mesh, seed=seed, prefix_cache=prefix_cache
            )
        return cls(
            artifact.instantiate(),
            kv_quant=artifact.kv_quant,
            seed=seed,
            artifact=artifact,
            prefix_cache=prefix_cache,
        )

    @classmethod
    def from_artifact_file(cls, path: Union[str, Path], seed: int = 0) -> "InferenceEngine":
        return cls.from_artifact(load_artifact(path), seed=seed)

    # ------------------------------------------------------------------
    # Bit-accurate hardware replay.
    # ------------------------------------------------------------------
    def functional_replay(
        self,
        batch_size: int,
        layers=None,
        seed: int = 0,
    ):
        """Push batched activations through the bit-accurate PE datapath
        against this engine's packed weight images (see
        :func:`repro.serve.bridge.functional_replay`).  Requires the
        engine to have been built from an artifact."""
        if self.artifact is None:
            raise RuntimeError(
                "functional replay needs the packed artifact; build the "
                "engine with from_artifact()/from_artifact_file()"
            )
        from repro.serve.bridge import functional_replay

        return functional_replay(
            self.artifact, batch_size, layers=layers, seed=seed
        )

    # ------------------------------------------------------------------
    # Sequence operations.
    # ------------------------------------------------------------------
    def start_sequence(
        self, prompt: np.ndarray, generation: GenerationConfig = GenerationConfig()
    ) -> SequenceState:
        """Validate the prompt and create an un-prefilled sequence."""
        prompt = np.asarray(prompt, dtype=np.int64).reshape(-1)
        if prompt.size == 0:
            raise ValueError("empty prompt")
        vocab = self.model.config.sim_vocab
        if prompt.min() < 0 or prompt.max() >= vocab:
            raise ValueError(f"prompt tokens must lie in [0, {vocab})")
        return SequenceState(prompt=prompt, generation=generation)

    def prefill(self, seq: SequenceState) -> int:
        """Run the prompt, producing the cache and the first token.

        With a prefix cache attached (and no KV quantization), the
        longest cached block-aligned prefix seeds the sequence's KV
        and only the uncached tail is computed;
        ``seq.prefix_hit_tokens`` records how much prefill was skipped.
        """
        if seq.prefilled:
            raise RuntimeError("sequence already prefilled")
        share = self.prefix_cache if self.kv_quant is None else None
        hit = share.lookup(seq.prompt) if share is not None else None
        if hit is not None:
            length, snapshot = hit
            cache = KVCache.from_snapshot(snapshot, capacity=seq.kv_capacity)
            logits = self.model.logits(seq.prompt[length:], cache=cache)
            seq.prefix_hit_tokens = length
        else:
            logits, cache = self.model.prefill(
                seq.prompt, kv_quant=self.kv_quant, capacity=seq.kv_capacity
            )
        seq.cache = cache
        if share is not None:
            share.insert(seq.prompt, cache)
        token = self._sample(logits[0, -1], seq.generation.temperature)
        seq.generated.append(token)
        return token

    def decode(self, seqs: Sequence[SequenceState]) -> List[int]:
        """Extend each sequence by one token; returns the new tokens.

        All of ``seqs`` go through one batched forward against their own
        KV caches (a single sequence is the batch-1 case).  Tokens are
        then sampled in list order, so a tempered batch draws from the
        engine RNG in the same order as decoding the sequences one by
        one would.
        """
        if len({id(seq) for seq in seqs}) != len(seqs):
            raise ValueError("a sequence appears twice in one decode batch")
        for seq in seqs:
            if not seq.prefilled:
                raise RuntimeError("prefill before decoding")
            if seq.done:
                raise RuntimeError("sequence already finished")
            if seq.cache is None:
                raise RuntimeError("sequence's KV cache was released")
        if not seqs:
            return []
        rows = self.model.decode_step(
            np.array([seq.last_token for seq in seqs]),
            [seq.cache for seq in seqs],
        )
        tokens = []
        for seq, row in zip(seqs, rows):
            token = self._sample(row, seq.generation.temperature)
            seq.generated.append(token)
            tokens.append(token)
        return tokens

    def generate(
        self, prompt: np.ndarray, generation: GenerationConfig = GenerationConfig()
    ) -> SequenceState:
        """Synchronous convenience: prefill + decode to completion."""
        seq = self.start_sequence(prompt, generation)
        self.prefill(seq)
        while not seq.done:
            self.decode([seq])
        return seq

    def _sample(self, logits_row: np.ndarray, temperature: float) -> int:
        if temperature <= 0.0:
            return int(np.argmax(logits_row))
        probs = softmax(logits_row / temperature)
        return int(self._rng.choice(probs.size, p=probs))
