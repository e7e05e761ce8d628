"""Per-layer accounting from ``repro.obs`` spans, recorded from outside.

:class:`LayerTrace` wraps public functions and methods of the library
with ``TRACER`` spans (the same tracer the library's own ``serve.*``,
``shard.*`` and ``kernel.*`` spans use), and :meth:`LayerTrace.fold`
drains the tracer and folds finished span trees into per-layer
aggregates, so memory stays bounded however long the run.  A layer's
*self* time is its span's duration minus what its child spans cover.

Module-level functions are wrapped where they are *looked up*: the
model code calls ``linear`` through ``repro.models.transformer``'s
namespace, so that is the attribute replaced.  Every wrapper is
removed again by :meth:`LayerTrace.uninstall`.
"""

from __future__ import annotations

import functools
import hashlib
import time
import weakref
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.hw import functional as hw_functional
from repro.models import transformer
from repro.obs.trace import TRACER
from repro.serve import artifact as serve_artifact
from repro.serve import bridge
from repro.serve.batching import ContinuousBatcher
from repro.serve.engine import InferenceEngine
from repro.serve.prefix import PrefixKVCache
from repro.shard import engine as shard_engine
from repro.shard import model as shard_model

#: The ops a decode step is split into.  ``attention`` covers RoPE and
#: the attention kernel; ``mlp`` covers the MLP linears and activation.
OPS = ("qkv", "o_proj", "mlp", "lm_head", "attention", "norm", "kv_append", "sample")

_LINEAR_OP = {
    "q_proj": "qkv",
    "k_proj": "qkv",
    "v_proj": "qkv",
    "o_proj": "o_proj",
    "gate_proj": "mlp",
    "up_proj": "mlp",
    "down_proj": "mlp",
    "fc1": "mlp",
    "fc2": "mlp",
    "lm_head": "lm_head",
}

_DECODE, _PREFILL = "serve.engine.decode", "serve.engine.prefill"
_STEP, _FORWARD = "serve.batching.step", "models.forward"
#: The spans ``repro.shard.collective`` emits around each collective.
_COLLECTIVE_SPANS = ("shard.all_gather", "shard.all_reduce", "shard.send")


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


class WeightNames:
    """Tells linears apart by the weight they multiply.

    Looked up by object identity first; an unknown array is matched
    by content against the model's full-precision-layout weights, which
    also names the fused per-rank blocks of a sharded model (they are
    bit-identical to the unsharded weight).
    """

    def __init__(self, weights: Dict[str, np.ndarray]):
        self._by_digest = {}
        for name, w in weights.items():
            op = _LINEAR_OP.get(name.rsplit(".", 1)[-1])
            if op is not None:
                self._by_digest[(w.shape, _digest(w))] = op
        self._by_id: Dict[int, str] = {}
        self._alive: List[np.ndarray] = []  # keeps ids stable

    def op(self, w: np.ndarray) -> str:
        op = self._by_id.get(id(w))
        if op is None:
            op = self._by_digest.get((w.shape, _digest(w)), "other")
            self._by_id[id(w)] = op
            self._alive.append(w)
        return op


class LayerTrace:
    """Span wrappers plus the aggregates folded from their spans."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []
        self.names: Optional[WeightNames] = None
        # Inclusive span time (ns) and bytes moved, keyed (phase, what).
        self.ns: Dict[tuple, int] = defaultdict(int)
        self.bytes: Dict[tuple, int] = defaultdict(int)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.prefix = {"lookups": 0, "hits": 0, "bytes_peak": 0}
        self.prompt_tokens = 0
        self.reused_tokens = 0
        self.computed_tokens = 0
        self.kv_peak_bytes = 0
        self._kv_live: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._submitted: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # Installing wrappers.
    # ------------------------------------------------------------------
    def _wrap(self, owner, attr: str, span: str, after: Optional[Callable] = None,
              args: Optional[Callable] = None, before: Optional[Callable] = None) -> None:
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*a, **kw):
            if before is not None:
                before()
            with TRACER.span(span, **(args(a) if args else {})) as sp:
                out = orig(*a, **kw)
                if after is not None and sp is not None:
                    after(sp, a, out)
                return out

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def install_setup(self) -> None:
        """Spans around each stage of building an engine."""
        self._wrap(serve_artifact, "pack_model", "serve.artifact.pack")
        self._wrap(serve_artifact.ModelArtifact, "instantiate", "serve.artifact.instantiate")
        self._wrap(shard_engine, "shard_weights", "shard.partition")

    def install_serving(self, weights: Dict[str, np.ndarray]) -> None:
        """Spans at every serving-layer boundary; ``weights`` are the
        model's linears (for naming them in the op split)."""
        self.names = WeightNames(weights)
        # Folding between scheduler steps keeps memory bounded.
        self._wrap(ContinuousBatcher, "step", _STEP, after=self._after_step,
                   args=lambda a: {"waiting": a[0].n_waiting}, before=self.fold)
        self._wrap(ContinuousBatcher, "submit", "serve.batching.submit", after=self._after_submit)
        self._wrap(InferenceEngine, "prefill", _PREFILL, after=self._after_prefill,
                   args=lambda a: {"started": time.monotonic()})
        self._wrap(InferenceEngine, "decode", _DECODE)
        self._wrap(PrefixKVCache, "lookup", "serve.prefix.lookup", after=self._after_lookup)
        self._wrap(PrefixKVCache, "insert", "serve.prefix.insert", after=self._after_insert)
        self._wrap(transformer.KVCache, "append", "models.op.kv_append", after=self._after_append)
        self._wrap(transformer, "quantize_kv", "quant.kv")
        for module in (transformer, shard_model):
            self._wrap(module, "linear", "models.op.linear", after=self._after_linear)
            for fn, op in (("causal_attention", "attention"), ("apply_rope", "attention"),
                           ("rms_norm", "norm"), ("layer_norm", "norm"),
                           ("silu", "mlp"), ("gelu", "mlp")):
                self._wrap(module, fn, "models.op." + op)
        self._wrap(transformer.CausalLM, "logits", _FORWARD)
        self._wrap(shard_model.ShardedCausalLM, "logits", _FORWARD)
        self._wrap(hw_functional.FunctionalGemm, "run_packed", "hw.functional.run_packed")
        self._wrap(bridge, "simulate", "hw.simulator.simulate")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # ------------------------------------------------------------------
    # Counts recorded at the same boundaries as the spans.
    # ------------------------------------------------------------------
    def _after_step(self, sp, a, report) -> None:
        sp.args["decoded"] = report.decode_tokens
        live = sum(sum(per_layer.values()) for per_layer in list(self._kv_live.values()))
        self.kv_peak_bytes = max(self.kv_peak_bytes, live)

    def _after_submit(self, sp, a, state) -> None:
        self._submitted[id(state.seq)] = state.request.submitted_at

    def _after_prefill(self, sp, a, token) -> None:
        seq = a[1]
        submitted = self._submitted.pop(id(seq), None)
        if submitted is not None:
            self.samples["queue_wait_s"].append(sp.args["started"] - submitted)
        self.prompt_tokens += int(seq.prompt.size)
        self.reused_tokens += seq.prefix_hit_tokens
        sp.args["computed"] = int(seq.prompt.size) - seq.prefix_hit_tokens

    def _after_lookup(self, sp, a, hit) -> None:
        self.prefix["lookups"] += 1
        self.prefix["hits"] += hit is not None

    def _after_insert(self, sp, a, length) -> None:
        self.prefix["bytes_peak"] = max(self.prefix["bytes_peak"], a[0].stats()["bytes"])

    def _after_append(self, sp, a, out) -> None:
        cache, layer, k_new = a[0], a[1], a[2]
        k, v = out
        self._kv_live.setdefault(cache, {})[layer] = k.nbytes + v.nbytes
        # A concatenate copied the whole cached tensor pair.
        sp.args["copied"] = k.nbytes + v.nbytes if k.shape[2] > k_new.shape[2] else 0

    def _after_linear(self, sp, a, out) -> None:
        x, w = a[0], a[1]
        sp.args["op"] = self.names.op(w)
        sp.args["bytes"] = x.nbytes + w.nbytes + out.nbytes

    # ------------------------------------------------------------------
    # Folding drained spans into aggregates.
    # ------------------------------------------------------------------
    def fold(self) -> None:
        """Drain the tracer and fold every finished span tree.

        Call only when no span is open (between scheduler steps, or
        after a phase), so each drained batch holds whole trees.
        """
        spans = TRACER.drain()
        by_id = {s["id"]: s for s in spans}
        child_ns: Dict[int, int] = defaultdict(int)
        for s in spans:
            if s["parent"] in by_id:
                child_ns[s["parent"]] += s["dur_ns"]
        phase_of: Dict[int, tuple] = {}

        def context(s) -> tuple:
            """(nearest decode/prefill ancestor-or-self name, step id)."""
            got = phase_of.get(s["id"])
            if got is None:
                parent = by_id.get(s["parent"])
                phase, step = context(parent) if parent is not None else ("other", None)
                if s["name"] in (_DECODE, _PREFILL):
                    phase = s["name"]
                if s["name"] == _STEP:
                    step = s["id"]
                got = phase_of[s["id"]] = (phase, step)
            return got

        forwards: Dict[int, int] = defaultdict(int)
        for s in spans:
            name, dur = s["name"], s["dur_ns"]
            args = s.get("args", {})
            phase, step = context(s)
            self_ns = dur - child_ns[s["id"]]
            what = name
            if name == "models.op.linear":
                what = "models.op." + args["op"]
                self.bytes[(phase, "linear")] += args["bytes"]
                self.ns[(phase, "linear")] += dur
            elif name == "models.op.kv_append":
                self.bytes[(phase, "kv_copied")] += args["copied"]
            elif name == _FORWARD:
                # What the forward did outside every op span.
                self.ns[(phase, "unattributed")] += self_ns
                if step is not None:
                    forwards[step] += 1
            elif name == _DECODE:
                self.ns[(phase, "models.op.sample")] += self_ns
                self.samples["decode_ms"].append(dur / 1e6)
            elif name == _PREFILL:
                self.samples["prefill_ms"].append(dur / 1e6)
                self.computed_tokens += args.get("computed", 0)
            elif name == _STEP:
                self.samples["step_ms"].append(dur / 1e6)
                self.samples["waiting"].append(args["waiting"])
                self.samples["decode_seqs"].append(args.get("decoded", 0))
                # Children are recorded before their parent closes, so
                # this step's forwards are already counted.
                self.samples["forwards"].append(forwards[s["id"]])
            elif name == "hw.functional.run_packed":
                self.samples["run_packed_ms"].append(dur / 1e6)
            elif name == "hw.simulator.simulate":
                self.samples["simulate_us"].append(dur / 1e3)
            elif name in _COLLECTIVE_SPANS:
                what = "shard.collective"
            self.ns[(phase, what)] += dur

    # ------------------------------------------------------------------
    def total_ns(self, what: str, phase: Optional[str] = None) -> int:
        return sum(v for (p, w), v in self.ns.items() if w == what and phase in (None, p))

    def total_bytes(self, what: str, phase: Optional[str] = None) -> int:
        return sum(v for (p, w), v in self.bytes.items() if w == what and phase in (None, p))
