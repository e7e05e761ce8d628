"""Tensor/pipeline-parallel causal LM over a device mesh.

:class:`ShardedCausalLM` runs the same math as
:class:`~repro.models.transformer.CausalLM` with every weight split
per :func:`~repro.shard.mesh.partition_specs` — an SPMD program
unrolled in-process: one weight dict per (stage, tp-rank), explicit
per-rank compute, and every cross-rank movement through the
:class:`~repro.shard.collective.Collective` layer.

Why the default mode is byte-exact — the accumulation-order spec:
column-parallel projections are *evaluated jointly*: the per-rank
weight row-blocks are concatenated back (bit-identical to the full
weight, since the partitioner slices contiguous rows) and pushed
through ONE GEMM whose shape equals the single-device one, then split
into per-rank column blocks.  This matters because BLAS picks its
blocking — and therefore its K-accumulation order — from the matrix
shape: a per-rank GEMM of width ``N/tp`` can round differently than
the width-``N`` original (empirically it does below width 128), while
the fused evaluation is the *same* GEMM as single-device, so its
output slices are byte-exact by construction.  Per-rank attention
stays genuinely per-rank: head-batched matmuls keep every per-head
GEMM shape unchanged, so slicing the head axis never changes an
accumulation order.  Under ``reduce="gather"`` row-parallel
projections all-gather their exact input columns and contract over
the full K the same way — logits match byte for byte.  Under
``reduce="sum"`` the row-parallel weights are K-sliced per rank and
partial sums are all-reduced in fixed rank order: deterministic,
token-stream identical, logits within a few ULP.

Per-shard KV caches hold each rank's local heads.  KV-cache
quantization composes only when it is per-head (head slicing then
commutes with the scale computation); ``per_head=False`` computes a
global min/max over all heads and is rejected with a structured
:class:`~repro.shard.errors.ShardError`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.models.config import ModelConfig
# Attention runs in the shared ``transformer.attend``; this module still
# binds ``causal_attention`` so every op name the models use resolves in
# both model modules (``perfbench/tracing.py`` wraps them per module).
from repro.models.layers import (  # noqa: F401
    apply_rope,
    causal_attention,
    gelu,
    layer_norm,
    linear,
    rms_norm,
    silu,
)
from repro.models.transformer import (
    _LN_FAMILIES,
    KVCache,
    RopeTable,
    attend,
    decode_tokens,
    new_positions,
    row_caches,
    sinusoidal_positions,
)
from repro.quant.kv import KVQuantConfig
from repro.shard.collective import Collective
from repro.shard.errors import ShardError
from repro.shard.mesh import DeviceMesh

__all__ = ["ShardedCausalLM", "ShardedKVCache", "check_kv_quant"]


def check_kv_quant(kv_quant: Optional[KVQuantConfig]) -> None:
    """Reject KV quantization that cannot shard exactly.

    Per-head scales commute with head partitioning (each head's
    min/max sees the same values on its owning shard as on a single
    device); a per-tensor scale couples all heads and would make the
    sharded cache diverge from the single-device one.
    """
    if kv_quant is not None and not kv_quant.per_head:
        raise ShardError(
            "per-tensor KV quantization (per_head=False) does not commute "
            "with head-partitioned attention; use per_head=True or no "
            "KV quantization",
            kv_per_head=False,
        )


class ShardedKVCache:
    """A grid of per-device :class:`KVCache` objects for one sequence.

    ``caches[stage][rank]`` holds the local layers x local KV heads of
    that device.  Layer indices inside each stage cache are local
    (0-based within the stage's range).  Every device cache reserves
    ``capacity`` positions at its first write (see :class:`KVCache`).
    """

    def __init__(
        self,
        mesh: DeviceMesh,
        layer_counts: List[int],
        quant: Optional[KVQuantConfig] = None,
        capacity: int = 0,
    ):
        check_kv_quant(quant)
        self.mesh = mesh
        self.quant = quant
        self.caches: List[List[KVCache]] = [
            [KVCache(n, quant=quant, capacity=capacity) for _ in range(mesh.tp)]
            for n in layer_counts
        ]

    @property
    def seq_len(self) -> int:
        return self.caches[0][0].seq_len

    @property
    def memory_bytes(self) -> int:
        return sum(c.memory_bytes for row in self.caches for c in row)

    def release(self) -> None:
        """Drop every device's buffers; the cache is empty afterwards."""
        for row in self.caches:
            for cache in row:
                cache.release()


class ShardedCausalLM:
    """The sharded twin of :class:`~repro.models.transformer.CausalLM`."""

    def __init__(
        self,
        config: ModelConfig,
        mesh: DeviceMesh,
        shards: List[List[Dict[str, np.ndarray]]],
        collective: Optional[Collective] = None,
        seed: int = 0,
    ):
        mesh.validate_model(config)
        if len(shards) != mesh.pp or any(len(row) != mesh.tp for row in shards):
            raise ShardError(
                f"weight grid is {len(shards)}x"
                f"{len(shards[0]) if shards else 0}, mesh is "
                f"{mesh.pp}x{mesh.tp} (stages x ranks)",
                pp=mesh.pp,
                tp=mesh.tp,
            )
        self.config = config
        self.mesh = mesh
        self.shards = shards
        self.collective = collective if collective is not None else Collective(mesh)
        self.seed = seed
        self._use_layernorm = config.family in _LN_FAMILIES
        self._use_rope = config.family != "opt"
        self._rope = RopeTable(config.sim_head_dim())
        self._ranges = mesh.layer_ranges(config.sim_layers)
        #: Concatenated per-rank weight blocks, keyed (stage, name) —
        #: the operand of the fused (shape-preserving) rank GEMMs.
        self._fused: Dict[Tuple[int, str], np.ndarray] = {}

    # ------------------------------------------------------------------
    def _w(self, stage: int, rank: int, name: str) -> np.ndarray:
        try:
            return self.shards[stage][rank][name]
        except KeyError:
            raise ShardError(
                f"stage {stage} rank {rank} is missing tensor {name!r}",
                stage=stage,
                rank=rank,
                tensor=name,
            ) from None

    def _fused_w(self, stage: int, name: str) -> np.ndarray:
        """The per-rank row-blocks of ``name`` concatenated in rank
        order — bit-identical to the unsharded weight, so the fused
        GEMM runs at the single-device shape (see module docstring)."""
        key = (stage, name)
        w = self._fused.get(key)
        if w is None:
            if self.mesh.tp == 1:
                w = self._w(stage, 0, name)
            else:
                w = np.concatenate(
                    [self._w(stage, r, name) for r in range(self.mesh.tp)],
                    axis=0,
                )
            self._fused[key] = w
        return w

    def _norm(self, x: np.ndarray, gain: np.ndarray) -> np.ndarray:
        if self._use_layernorm:
            return layer_norm(x, gain)
        return rms_norm(x, gain)

    def fresh_cache(
        self, kv_quant: Optional[KVQuantConfig] = None, capacity: int = 0
    ) -> ShardedKVCache:
        return ShardedKVCache(
            self.mesh,
            [hi - lo for lo, hi in self._ranges],
            quant=kv_quant,
            capacity=capacity,
        )

    # ------------------------------------------------------------------
    def _attention(
        self,
        stage: int,
        local_layer: int,
        xn: np.ndarray,
        prefix: str,
        cos,
        sin,
        caches: Optional[List[ShardedKVCache]],
        batch: int,
        seq: int,
    ) -> np.ndarray:
        cfg, mesh = self.config, self.mesh
        tp = mesh.tp
        heads, kv_heads = cfg.sim_heads // tp, cfg.sim_kv_heads // tp
        hd = cfg.sim_head_dim()
        # Fused QKV projections (single-device GEMM shapes), split into
        # per-rank head blocks; column-parallel, so no collective.
        qs = np.split(linear(xn, self._fused_w(stage, prefix + "q_proj")), tp, axis=-1)
        ks = np.split(linear(xn, self._fused_w(stage, prefix + "k_proj")), tp, axis=-1)
        vs = np.split(linear(xn, self._fused_w(stage, prefix + "v_proj")), tp, axis=-1)
        parts: List[np.ndarray] = []
        for rank in range(tp):
            q, k, v = qs[rank], ks[rank], vs[rank]
            q = q.reshape(batch, seq, heads, hd).transpose(0, 2, 1, 3)
            k = k.reshape(batch, seq, kv_heads, hd).transpose(0, 2, 1, 3)
            v = v.reshape(batch, seq, kv_heads, hd).transpose(0, 2, 1, 3)
            if self._use_rope:
                q = apply_rope(q, cos, sin)
                k = apply_rope(k, cos, sin)
            device = None if caches is None else [c.caches[stage][rank] for c in caches]
            attn = attend(q, k, v, device, local_layer)
            parts.append(attn.transpose(0, 2, 1, 3).reshape(batch, seq, -1))
        return self._row_parallel(stage, prefix + "o_proj", parts)

    def _row_parallel(
        self, stage: int, name: str, parts: List[np.ndarray]
    ) -> np.ndarray:
        """Project per-rank column blocks through a row-parallel weight."""
        mesh, coll = self.mesh, self.collective
        if mesh.tp == 1:
            return linear(parts[0], self._w(stage, 0, name))
        if mesh.reduce == "gather":
            full = coll.all_gather(parts, axis=-1, stage=stage)
            out = linear(full, self._fused_w(stage, name))
            return coll.all_gather(
                list(np.split(out, mesh.tp, axis=-1)), axis=-1, stage=stage
            )
        outs = [
            linear(parts[r], self._w(stage, r, name)) for r in range(mesh.tp)
        ]
        return coll.all_reduce(outs, stage=stage)

    def _mlp(self, stage: int, xn: np.ndarray, prefix: str) -> np.ndarray:
        cfg, tp = self.config, self.mesh.tp
        if cfg.gated_mlp:
            gate = silu(linear(xn, self._fused_w(stage, prefix + "gate_proj")))
            up = linear(xn, self._fused_w(stage, prefix + "up_proj"))
            # Elementwise, so the per-rank column blocks of the fused
            # product equal each rank's locally computed activation.
            parts = list(np.split(gate * up, tp, axis=-1))
            return self._row_parallel(stage, prefix + "down_proj", parts)
        inner = gelu(linear(xn, self._fused_w(stage, prefix + "fc1")))
        parts = list(np.split(inner, tp, axis=-1))
        return self._row_parallel(stage, prefix + "fc2", parts)

    # ------------------------------------------------------------------
    def hidden_states(self, tokens: np.ndarray, cache=None) -> np.ndarray:
        """Final hidden states; ``cache`` is one :class:`ShardedKVCache`
        or a list of one per row, as in
        :meth:`~repro.models.transformer.CausalLM.hidden_states`."""
        cfg, mesh = self.config, self.mesh
        tokens = np.asarray(tokens)
        if tokens.ndim == 1:
            tokens = tokens[None, :]
        batch, seq = tokens.shape
        h = cfg.sim_hidden
        caches = row_caches(cache, batch)
        positions = new_positions(caches, batch, seq)

        x = self._w(0, 0, "embed")[tokens] * np.sqrt(h)
        cos = sin = None
        if self._use_rope:
            cos, sin = self._rope.rows(positions)
        else:
            x = x + sinusoidal_positions(positions, h)

        for stage, (lo, hi) in enumerate(self._ranges):
            if stage > 0:
                x = self.collective.send(x, src_stage=stage - 1, dst_stage=stage)
            for layer in range(lo, hi):
                prefix = f"layers.{layer}."
                xn = self._norm(x, self._w(stage, 0, prefix + "attn_norm"))
                x = x + self._attention(
                    stage, layer - lo, xn, prefix, cos, sin, caches,
                    batch, seq,
                )
                xn = self._norm(x, self._w(stage, 0, prefix + "mlp_norm"))
                x = x + self._mlp(stage, xn, prefix)

        last = mesh.pp - 1
        return self._norm(x, self._w(last, 0, "final_norm"))

    def logits(self, tokens: np.ndarray, cache=None) -> np.ndarray:
        """Vocabulary logits ``(batch, seq, vocab)`` — vocab-parallel
        LM head, logits all-gathered across ranks."""
        x = self.hidden_states(tokens, cache=cache)
        mesh = self.mesh
        last = mesh.pp - 1
        if mesh.tp == 1:
            return linear(x, self._w(last, 0, "lm_head"))
        out = linear(x, self._fused_w(last, "lm_head"))
        return self.collective.all_gather(
            list(np.split(out, mesh.tp, axis=-1)), axis=-1, stage=last
        )

    # ------------------------------------------------------------------
    # Stateful serving path (mirrors CausalLM).
    # ------------------------------------------------------------------
    def prefill(
        self,
        tokens: np.ndarray,
        kv_quant: Optional[KVQuantConfig] = None,
        capacity: int = 0,
    ) -> Tuple[np.ndarray, ShardedKVCache]:
        cache = self.fresh_cache(kv_quant, capacity=capacity)
        return self.logits(tokens, cache=cache), cache

    def decode_step(self, tokens: np.ndarray, cache) -> np.ndarray:
        """One new token per sequence, one :class:`ShardedKVCache` per
        sequence (a bare cache for batch 1); one batched forward."""
        return self.logits(decode_tokens(tokens), cache=cache)[:, -1]
