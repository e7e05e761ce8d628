"""The causal-LM transformer substrate.

:class:`CausalLM` instantiates the sim-scale architecture of a
:class:`~repro.models.config.ModelConfig` with synthetic weights and
provides:

* ``logits(tokens)`` — a full forward pass;
* ``prefill(tokens)`` / ``decode_step(tokens, caches)`` — the stateful
  serving path: run a prompt once, then extend any number of
  sequences by one token each in one batched forward, every sequence
  against its own :class:`KVCache` (optionally quantized via
  :mod:`repro.quant.kv`) instead of recomputing the whole sequence;
* ``named_linears()`` — the quantizable weight matrices, matching the
  convention of the PTQ literature (decoder-block linears only;
  embeddings and the LM head stay FP16);
* ``apply_quantizer(fn)`` — functional weight replacement, returning a
  quantized *copy* so the FP16 reference model stays intact.

Architecture per family: OPT/Phi use LayerNorm + GELU MLPs and OPT
adds sinusoidal positions at the embedding; Llama/Yi use RMSNorm,
RoPE, gated SiLU MLPs, and (Yi / Llama-3) grouped-query attention.
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.models.config import ModelConfig
from repro.models.layers import (
    apply_rope,
    causal_attention,
    gelu,
    layer_norm,
    linear,
    rms_norm,
    rope_cache,
    silu,
)
from repro.models.synth import generate_model_weights
from repro.quant.kv import KVQuantConfig, quantize_kv

__all__ = ["CausalLM", "KVCache"]

_LN_FAMILIES = ("opt", "phi")


class KVCache:
    """Per-layer key/value cache of one sequence for incremental decode.

    Entries hold the *pre-GQA-broadcast* key/value tensors of shape
    ``(1, kv_heads, seq, head_dim)``; the attention layer repeats them
    to the query head count on use.  With ``quant`` set, every appended
    segment is quantized (and stored dequantized) the moment it enters
    the cache — matching a deployment where past KV lives in
    low-precision memory and is never re-quantized.

    Each layer writes into one buffer in place and :meth:`append`
    returns views of its used positions.  The first write sizes the
    buffer to ``capacity`` positions (the serving engine passes
    prompt + ``max_new_tokens`` - 1, the most a sequence ever caches);
    a longer sequence grows it by doubling, so an append costs O(new
    positions), not a copy of the whole cache.
    """

    def __init__(
        self,
        n_layers: int,
        quant: Optional[KVQuantConfig] = None,
        capacity: int = 0,
    ):
        self.quant = quant
        self.capacity = capacity
        self._keys: List[Optional[np.ndarray]] = [None] * n_layers
        self._values: List[Optional[np.ndarray]] = [None] * n_layers
        self._lens = [0] * n_layers
        # False while a layer's buffers are adopted snapshot arrays,
        # which must never be written.
        self._owned = [True] * n_layers

    @property
    def n_layers(self) -> int:
        return len(self._keys)

    @property
    def seq_len(self) -> int:
        """Number of cached positions (0 for a fresh cache)."""
        return self._lens[0]

    def append(
        self, layer: int, k: np.ndarray, v: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Add new-position K/V for ``layer``; return views of the full
        cached tensors (valid until the next append to ``layer``)."""
        if self.quant is not None:
            k = quantize_kv(k, self.quant)
            v = quantize_kv(v, self.quant)
        used = self._lens[layer]
        end = used + k.shape[2]
        keys, values = self._keys[layer], self._values[layer]
        if keys is None or not self._owned[layer]:
            size = max(end, self.capacity)
        elif end > keys.shape[2]:
            size = max(end, 2 * keys.shape[2])
        else:
            size = 0
        if size:
            keys = self._grow(keys, used, size, k)
            values = self._grow(values, used, size, v)
            self._keys[layer], self._values[layer] = keys, values
            self._owned[layer] = True
        keys[:, :, used:end] = k
        values[:, :, used:end] = v
        self._lens[layer] = end
        return keys[:, :, :end], values[:, :, :end]

    @staticmethod
    def _grow(
        old: Optional[np.ndarray], used: int, size: int, new: np.ndarray
    ) -> np.ndarray:
        """A fresh buffer of ``size`` positions holding ``old``'s first
        ``used`` ones."""
        shape = new.shape[:2] + (size,) + new.shape[3:]
        buf = np.empty(shape, dtype=new.dtype)
        if used:
            buf[:, :, :used] = old[:, :, :used]
        return buf

    def release(self) -> None:
        """Drop every buffer; the cache is empty afterwards."""
        n = self.n_layers
        self._keys, self._values = [None] * n, [None] * n
        self._lens, self._owned = [0] * n, [True] * n

    @property
    def memory_bytes(self) -> int:
        """Footprint of the cached positions at the stored
        (post-quantization) precision; spare buffer capacity is not
        counted."""
        bits = 16 if self.quant is None else self.quant.bits
        elements = sum(
            2 * k.shape[0] * k.shape[1] * n * k.shape[3]
            for k, n in zip(self._keys, self._lens)
            if k is not None
        )
        return elements * bits // 8

    # ------------------------------------------------------------------
    # Prefix sharing (repro.serve.prefix).
    # ------------------------------------------------------------------
    def snapshot(self, length: int) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Copied per-layer K/V slices covering the first ``length``
        positions — the storable form of a shareable prompt prefix."""
        if not (0 < length <= self.seq_len):
            raise ValueError(
                f"snapshot length {length} outside cached range "
                f"(1..{self.seq_len})"
            )
        return [
            (k[:, :, :length, :].copy(), v[:, :, :length, :].copy())
            for k, v in zip(self._keys, self._values)
        ]

    @classmethod
    def from_snapshot(
        cls,
        pairs: List[Tuple[np.ndarray, np.ndarray]],
        quant: Optional[KVQuantConfig] = None,
        capacity: int = 0,
    ) -> "KVCache":
        """A cache pre-seeded with snapshotted prefix K/V.

        The snapshot arrays are adopted by reference and never written:
        a layer's first :meth:`append` copies them into a fresh buffer
        of ``capacity`` positions, so one snapshot can seed any number
        of caches concurrently.
        """
        cache = cls(len(pairs), quant=quant, capacity=capacity)
        for layer, (k, v) in enumerate(pairs):
            cache._keys[layer] = k
            cache._values[layer] = v
            cache._lens[layer] = k.shape[2]
            cache._owned[layer] = False
        return cache


def decode_tokens(tokens) -> np.ndarray:
    """Decode input as ``(batch, 1)``: one new token per sequence.

    The layout is what keeps a batched decode bit-identical to batch-1:
    ``linear`` on ``(batch, 1, hidden)`` activations runs one GEMV per
    row, the BLAS call a batch-1 forward makes.  Folding the rows into
    one ``(batch, hidden)`` GEMM would reuse each weight across rows,
    but OpenBLAS picks its GEMM kernel (and accumulation order) by
    shape, and on AVX-512 hosts those rows differ from GEMV rows in the
    last bits.
    """
    tokens = np.asarray(tokens)
    if tokens.ndim < 2:
        tokens = tokens.reshape(-1, 1)
    if tokens.shape[1] != 1:
        raise ValueError("decode_step consumes exactly one new token per sequence")
    return tokens


def row_caches(cache, batch: int) -> Optional[list]:
    """``cache`` as a list of one cache per batch row.

    Accepts ``None`` (no cache), a single cache (batch 1) or a sequence
    of caches, one per row, whose lengths may differ.
    """
    if cache is None:
        return None
    caches = list(cache) if isinstance(cache, (list, tuple)) else [cache]
    if len(caches) != batch:
        raise ValueError(f"{len(caches)} caches for a batch of {batch} sequences")
    return caches


def new_positions(caches: Optional[list], batch: int, seq: int) -> np.ndarray:
    """Absolute positions ``(batch, seq)`` of the tokens a forward adds:
    each row continues after its own cached length."""
    past = np.zeros(batch, dtype=np.int64) if caches is None else np.array(
        [c.seq_len for c in caches], dtype=np.int64
    )
    return past[:, None] + np.arange(seq)


def sinusoidal_positions(positions: np.ndarray, hidden: int) -> np.ndarray:
    """Sinusoidal position embeddings (OPT-style learned-pos stand-in)
    for integer ``positions``; shape ``positions.shape + (hidden,)``."""
    dim = np.arange(hidden // 2)
    angle = positions[..., None] / 10000 ** (2 * dim / hidden)
    out = np.zeros(positions.shape + (hidden,))
    out[..., 0::2] = np.sin(angle)
    out[..., 1::2] = np.cos(angle)
    return 0.02 * out


class RopeTable:
    """RoPE cos/sin rows gathered per position.

    The table grows with slack, so per-token decode does not rebuild it
    every step (amortized O(1) per position).
    """

    def __init__(self, head_dim: int):
        self.head_dim = head_dim
        self._cos: Optional[np.ndarray] = None
        self._sin: Optional[np.ndarray] = None

    def rows(self, positions: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """cos, sin of shape ``(batch, 1, seq, head_dim/2)`` for
        ``positions`` of shape ``(batch, seq)``; they broadcast over the
        head axis of ``(batch, heads, seq, head_dim)`` tensors."""
        need = int(positions.max()) + 1
        if self._cos is None or self._cos.shape[0] < need:
            grown = need if self._cos is None else max(need, 2 * self._cos.shape[0])
            self._cos, self._sin = rope_cache(grown, self.head_dim)
        return self._cos[positions][:, None], self._sin[positions][:, None]


def attend(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    caches: Optional[list],
    layer: int,
) -> np.ndarray:
    """Causal attention of a forward's new positions.

    ``q`` is ``(batch, heads, seq, head_dim)``; ``k``/``v`` are
    ``(batch, kv_heads, seq, head_dim)`` and are broadcast to the query
    head count here.  Without caches the batch attends as one tensor.
    With ``caches`` (one per row), row ``b`` appends its K/V to
    ``caches[b]`` at ``layer`` and attends over that cache alone.  The
    rows stay separate because the caches differ in length: padding
    them to one length would change the softmax and ``probs @ v``
    reductions, so the result would no longer match a batch-1 forward
    bit for bit.
    """
    rep = q.shape[1] // k.shape[1]
    if caches is None:
        if rep > 1:
            k = np.repeat(k, rep, axis=1)
            v = np.repeat(v, rep, axis=1)
        return causal_attention(q, k, v)
    outs = []
    for b, cache in enumerate(caches):
        keys, values = cache.append(layer, k[b : b + 1], v[b : b + 1])
        if rep > 1:
            keys = np.repeat(keys, rep, axis=1)
            values = np.repeat(values, rep, axis=1)
        past = keys.shape[2] - q.shape[2]
        outs.append(causal_attention(q[b : b + 1], keys, values, past_len=past))
    return np.concatenate(outs)


class CausalLM:
    """A numpy causal language model at sim scale."""

    def __init__(self, config: ModelConfig, seed: int = 0, weights: Optional[dict] = None):
        self.config = config
        self.seed = seed
        self.weights = weights if weights is not None else generate_model_weights(config, seed)
        self._use_layernorm = config.family in _LN_FAMILIES
        self._use_rope = config.family != "opt"
        self._rope = RopeTable(config.sim_head_dim())
        #: When set (e.g. 8), inputs of every block linear are
        #: dynamically quantized to this many bits, per-tensor
        #: symmetric — the SmoothQuant INT8-activation mode.
        self.act_quant_bits: Optional[int] = None

    def _maybe_quant_act(self, x: np.ndarray) -> np.ndarray:
        if self.act_quant_bits is None:
            return x
        qmax = 2 ** (self.act_quant_bits - 1) - 1
        absmax = float(np.max(np.abs(x)))
        if absmax == 0.0:
            return x
        scale = absmax / qmax
        return np.clip(np.round(x / scale), -qmax, qmax) * scale

    # ------------------------------------------------------------------
    # Weight access for quantizers.
    # ------------------------------------------------------------------
    def named_linears(self) -> Dict[str, np.ndarray]:
        """Quantizable weight matrices: every decoder-block linear."""
        keys = [
            k
            for k in self.weights
            if k.startswith("layers.") and not k.endswith("_norm")
        ]
        return {k: self.weights[k] for k in keys}

    def apply_quantizer(
        self, quantize: Callable[[str, np.ndarray], np.ndarray]
    ) -> "CausalLM":
        """Return a copy whose block linears are ``quantize(name, w)``."""
        new_weights = dict(self.weights)
        for name, w in self.named_linears().items():
            new_weights[name] = quantize(name, w)
        clone = copy.copy(self)
        clone.weights = new_weights
        return clone

    def apply_plan(self, plan) -> "CausalLM":
        """Return a copy quantized per a
        :class:`~repro.policy.plan.QuantPlan` (layers the plan does not
        name keep their FP16 weights)."""
        return self.apply_quantizer(plan.as_quantizer())

    # ------------------------------------------------------------------
    # Forward pass.
    # ------------------------------------------------------------------
    def _norm(self, x: np.ndarray, gain: np.ndarray) -> np.ndarray:
        if self._use_layernorm:
            return layer_norm(x, gain)
        return rms_norm(x, gain)

    def hidden_states(
        self,
        tokens: np.ndarray,
        collect: bool = False,
        cache=None,
    ):
        """Run the decoder stack; return final hidden states.

        With ``collect=True`` also returns the *input* activations of
        every block linear (used by AWQ/GPTQ/SmoothQuant calibration).

        With ``cache`` set — one :class:`KVCache`, or a list of one per
        row of ``tokens`` — the tokens are treated as *new* positions
        following each row's cached context: attention reads the cached
        K/V, the new K/V are appended, and only the new positions are
        computed (the incremental prefill/decode path).  Rows may
        continue caches of different lengths; every op but attention
        runs on the whole batch at once.
        """
        if collect and cache is not None:
            raise ValueError("calibration collection needs a full forward pass")
        cfg = self.config
        tokens = np.asarray(tokens)
        if tokens.ndim == 1:
            tokens = tokens[None, :]
        batch, seq = tokens.shape
        h = cfg.sim_hidden
        n_heads, n_kv = cfg.sim_heads, cfg.sim_kv_heads
        head_dim = cfg.sim_head_dim()
        caches = row_caches(cache, batch)
        positions = new_positions(caches, batch, seq)

        x = self.weights["embed"][tokens] * np.sqrt(h)
        if self._use_rope:
            cos, sin = self._rope.rows(positions)
        else:
            x = x + sinusoidal_positions(positions, h)

        acts: Dict[str, np.ndarray] = {}

        def record(name: str, inp: np.ndarray) -> None:
            if collect:
                acts[name] = inp.reshape(-1, inp.shape[-1])

        for layer in range(cfg.sim_layers):
            w = lambda s: self.weights[f"layers.{layer}.{s}"]  # noqa: E731
            # --- attention ---
            xn = self._maybe_quant_act(self._norm(x, w("attn_norm")))
            record(f"layers.{layer}.q_proj", xn)
            record(f"layers.{layer}.k_proj", xn)
            record(f"layers.{layer}.v_proj", xn)
            q = linear(xn, w("q_proj")).reshape(batch, seq, n_heads, head_dim)
            k = linear(xn, w("k_proj")).reshape(batch, seq, n_kv, head_dim)
            v = linear(xn, w("v_proj")).reshape(batch, seq, n_kv, head_dim)
            q = q.transpose(0, 2, 1, 3)
            k = k.transpose(0, 2, 1, 3)
            v = v.transpose(0, 2, 1, 3)
            if self._use_rope:
                q = apply_rope(q, cos, sin)
                k = apply_rope(k, cos, sin)
            attn = attend(q, k, v, caches, layer)
            attn = attn.transpose(0, 2, 1, 3).reshape(batch, seq, h)
            attn = self._maybe_quant_act(attn)
            record(f"layers.{layer}.o_proj", attn)
            x = x + linear(attn, w("o_proj"))

            # --- MLP ---
            xn = self._maybe_quant_act(self._norm(x, w("mlp_norm")))
            if cfg.gated_mlp:
                record(f"layers.{layer}.gate_proj", xn)
                record(f"layers.{layer}.up_proj", xn)
                gate = silu(linear(xn, w("gate_proj")))
                up = linear(xn, w("up_proj"))
                inner = self._maybe_quant_act(gate * up)
                record(f"layers.{layer}.down_proj", inner)
                x = x + linear(inner, w("down_proj"))
            else:
                record(f"layers.{layer}.fc1", xn)
                inner = self._maybe_quant_act(gelu(linear(xn, w("fc1"))))
                record(f"layers.{layer}.fc2", inner)
                x = x + linear(inner, w("fc2"))

        x = self._norm(x, self.weights["final_norm"])
        if collect:
            return x, acts
        return x

    def logits(self, tokens: np.ndarray, cache=None) -> np.ndarray:
        """Vocabulary logits, shape ``(batch, seq, vocab)``.

        With ``cache`` set (see :meth:`hidden_states`), ``seq`` covers
        only the new positions; the caches are updated in place.
        """
        x = self.hidden_states(tokens, cache=cache)
        return linear(x, self.weights["lm_head"])

    # ------------------------------------------------------------------
    # Stateful serving path.
    # ------------------------------------------------------------------
    def prefill(
        self,
        tokens: np.ndarray,
        kv_quant: Optional[KVQuantConfig] = None,
        capacity: int = 0,
    ) -> Tuple[np.ndarray, KVCache]:
        """Run one prompt once, filling a fresh :class:`KVCache` whose
        buffers hold ``capacity`` positions before they grow.

        Returns ``(logits, cache)`` where ``logits`` covers every
        prompt position (so the caller can sample the first generated
        token from the last row).
        """
        cache = KVCache(self.config.sim_layers, quant=kv_quant, capacity=capacity)
        return self.logits(tokens, cache=cache), cache

    def decode_step(self, tokens: np.ndarray, cache) -> np.ndarray:
        """Logits for one new token per sequence, shape ``(batch, vocab)``.

        ``tokens`` holds the single newest token of each sequence
        (shape ``(batch,)`` or ``(batch, 1)``) and ``cache`` one
        :class:`KVCache` per sequence (a bare cache for batch 1).  The
        caches provide all earlier context, so one batched forward
        advances every sequence by a token.
        """
        return self.logits(decode_tokens(tokens), cache=cache)[:, -1]

    def collect_activations(self, tokens: np.ndarray) -> Dict[str, np.ndarray]:
        """Input activations of every block linear (calibration data)."""
        _, acts = self.hidden_states(tokens, collect=True)
        return acts
