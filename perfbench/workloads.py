"""The benchmark's workloads and the measurements taken on each.

Every workload builds its engine from nothing (synthesize, pack, save,
load, instantiate or partition), drives a seeded request trace at it
through ``ServeServer``, checks the token streams against a
single-sequence reference, and then replays the same artifact's packed
linears through the bit-serial PE datapath.  Why each workload exists,
and what it predicts for the layers it bypasses, is in ``README.md``.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.kernels.cache import decode_cache, reset_decode_cache
from repro.load import (
    LongDocSummarization,
    PoissonArrivals,
    SharedPrefixChat,
    TrafficModel,
    Workload,
)
from repro.models import CausalLM, get_model_config
from repro.obs.trace import TRACER
from repro.quant.config import QuantConfig
from repro.quant.kv import KVQuantConfig
from repro.quant.packing import unpack_tensor
from repro.serve import (
    ContinuousBatcher,
    GenerationConfig,
    InferenceEngine,
    PrefixKVCache,
    Request,
    RequestTrace,
    functional_replay,
    hardware_report,
    load_artifact,
    save_artifact,
)
from repro.shard import DeviceMesh

from clients import RunResult, serve_trace
from tracing import OPS, LayerTrace

#: Engine builds per run; ``setup_s`` is their median.  Each is
#: followed by one replay pass, and the first pair runs before serving,
#: the rest after it, so both metrics sample the host across the run.
SETUPS = 3
#: Decode batch sizes of the PE-datapath replay (one sequence slot,
#: and a continuous-batching step of eight).
REPLAY_BATCHES = (1, 8)
#: Unit roundoff of FP16, the accumulation format the replay's
#: error bound is stated in.
FP16_U = 2.0**-11
#: Bounds |x| for the replay's FP16 standard-normal activations; a
#: sample beyond 8 sigma has probability ~1e-15.
REPLAY_X_MAX = 8.0
#: Requests that take part in the tracing-overhead probe, and the
#: output tokens each is cut to (so the probe stays short on
#: ``offline-decode``; the other workloads ask for fewer).
OVERHEAD_PROBE_REQUESTS = 8
OVERHEAD_PROBE_TOKENS = 24


@dataclass(frozen=True)
class Spec:
    """One named workload."""

    name: str
    model: str
    dtype: str
    traffic: TrafficModel
    #: Callers, each sending its next request when the previous returns.
    clients: int
    #: Trace length per second of ``--seconds`` ...
    requests_per_s: float = 0.0
    #: ... or a fixed trace length.
    requests: Optional[int] = None
    tp: int = 1
    kv_bits: Optional[int] = None
    prefix_cache: bool = False
    #: SLO limits a request must meet on both counts.
    slo_ttft_s: float = 1.0
    slo_tbt_s: float = 0.1
    #: Completed streams re-generated one at a time for the check.
    check_sample: int = 16
    #: The server's per-step token budget.
    max_batch_tokens: int = 512


WORKLOADS: Dict[str, Spec] = {
    s.name: s
    for s in (
        Spec(
            name="chat",
            model="llama-2-7b",
            dtype="bitmod_fp4",
            traffic=SharedPrefixChat(
                n_prefixes=8,
                prefix_tokens=96,
                suffix_tokens=(8, 32),
                max_new_tokens=(8, 24),
                tier="interactive",
            ),
            clients=8,
            requests_per_s=8.0,
            prefix_cache=True,
            slo_ttft_s=0.25,
            slo_tbt_s=0.1,
        ),
        Spec(
            name="longdoc-tp2",
            model="opt-1.3b",
            dtype="bitmod_fp3",
            traffic=LongDocSummarization(
                doc_tokens=(96, 256), max_new_tokens=(4, 8), tier="batch"
            ),
            clients=2,
            requests_per_s=4.5,
            tp=2,
            slo_ttft_s=1.0,
            slo_tbt_s=0.2,
        ),
        Spec(
            name="offline-decode",
            model="llama-3-8b",
            dtype="bitmod_fp4",
            traffic=LongDocSummarization(
                doc_tokens=(16, 48), max_new_tokens=(128, 128), tier="batch"
            ),
            clients=32,
            requests=32,
            kv_bits=8,
            slo_ttft_s=5.0,
            slo_tbt_s=0.5,
            check_sample=4,
            # The whole batch's prompts fit one step.
            max_batch_tokens=2048,
        ),
    )
}


# ----------------------------------------------------------------------
# Host fingerprint.
# ----------------------------------------------------------------------


def _git_sha(root: Path) -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_digest(root: Path) -> str:
    """sha256 over the library sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def host_fingerprint(root: Path) -> Dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_sha": _git_sha(root),
        "src_sha256": _src_digest(root),
    }


# ----------------------------------------------------------------------
# Set-up.
# ----------------------------------------------------------------------

#: Set-up stages, each the span that times it.
SETUP_STAGES = {
    "synthesize_s": "models.synthesize",
    "pack_s": "serve.artifact.pack",
    "save_s": "serve.artifact.save",
    "load_s": "serve.artifact.load",
    "instantiate_s": "serve.artifact.instantiate",
    "partition_s": "shard.partition",
}


def _kv_quant(spec: Spec) -> Optional[KVQuantConfig]:
    return None if spec.kv_bits is None else KVQuantConfig(bits=spec.kv_bits, per_head=True)


def _mesh(spec: Spec) -> Optional[DeviceMesh]:
    return DeviceMesh(tp=spec.tp) if spec.tp > 1 else None


def set_up(spec: Spec, path: Path) -> Tuple[InferenceEngine, object, Dict[str, float]]:
    """Build the serving engine from nothing; returns it, the loaded
    artifact, and the wall time of each stage (total in ``setup_s``)."""
    trace = LayerTrace()
    trace.install_setup()
    TRACER.enabled = True
    try:
        t0 = time.perf_counter()
        with TRACER.span("models.synthesize"):
            model = CausalLM(get_model_config(spec.model), seed=0)
        with TRACER.span("serve.artifact.save"):
            save_artifact(path, model, QuantConfig(dtype=spec.dtype), kv_quant=_kv_quant(spec))
        with TRACER.span("serve.artifact.load"):
            artifact = load_artifact(path)
        engine = InferenceEngine.from_artifact(
            artifact,
            mesh=_mesh(spec),
            prefix_cache=PrefixKVCache() if spec.prefix_cache else None,
        )
        total = time.perf_counter() - t0
    finally:
        TRACER.enabled = False
        trace.uninstall()
    trace.fold()
    stages = {k: trace.total_ns(span) / 1e9 for k, span in SETUP_STAGES.items()}
    stages["save_s"] -= stages["pack_s"]  # save_artifact packs, then writes
    stages["setup_s"] = total
    stages["packed_bytes"] = artifact.packed_bytes
    path.unlink()
    return engine, artifact, stages


# ----------------------------------------------------------------------
# Inputs.
# ----------------------------------------------------------------------


def build_trace(spec: Spec, seed: int, seconds: float, vocab: int) -> Workload:
    """The seeded request trace.  Callers take requests in trace order
    as they free up, so the arrival times (all zero) are unused."""
    n = spec.requests or max(spec.clients, round(spec.requests_per_s * seconds))
    return Workload(PoissonArrivals(1.0), spec.traffic, n, seed=seed, vocab=vocab,
                    time_scale=0.0)


def warm_up(engine: InferenceEngine, spec: Spec, trace) -> int:
    """Serve untimed what a server in steady state has already served.

    That is one request (so lazy set-up in the model and BLAS is done
    before the clock starts) or, with a prefix cache, each shared
    system prompt of ``trace`` once.  Without the latter, a run's first
    request per prompt pays a cold prefill that a long-lived server
    pays once.  Returns the number of prompts served.
    """
    prompts = [trace[0].prompt]
    if spec.prefix_cache:
        # One token past the shared prefix: the cache keeps block-aligned
        # strict prefixes, so this stores exactly the system prompt.
        n = spec.traffic.prefix_tokens + 1
        prompts = list({r.prompt[:n].tobytes(): r.prompt[:n] for r in trace}.values())
    for prompt in prompts:
        engine.generate(prompt, GenerationConfig(max_new_tokens=2, temperature=0.0))
    return len(prompts)


# ----------------------------------------------------------------------
# Checks.
# ----------------------------------------------------------------------


def check_streams(spec: Spec, artifact, trace, run: RunResult, seed: int) -> Dict:
    """Re-generate a seeded sample of completed streams one sequence at
    a time on a fresh single-device engine; greedy streams must match
    byte for byte (same sequence on one device, for a sharded run)."""
    done = [o for o in run.outcomes if o.outcome == "completed"]
    rng = np.random.default_rng(seed)
    pick = sorted(rng.choice(len(done), size=min(spec.check_sample, len(done)), replace=False))
    reference = InferenceEngine.from_artifact(artifact)
    mismatched = []
    for i in pick:
        o = done[i]
        req = trace[o.index]
        want = reference.generate(
            req.prompt, GenerationConfig(max_new_tokens=req.max_new_tokens, temperature=0.0)
        ).generated
        if list(want) != o.tokens:
            mismatched.append(o.index)
    return {"checked": len(pick), "mismatched": mismatched}


def replay_pass(artifact, seed: int) -> Dict:
    """One bit-accurate replay of every packed linear at each decode
    batch size, from a cold kernel decode cache."""
    reset_decode_cache()
    t0 = time.perf_counter()
    results = [r for b in REPLAY_BATCHES for r in functional_replay(artifact, b, seed=seed)]
    return {"seconds": time.perf_counter() - t0, "results": results,
            "cache": decode_cache().stats()}


def replay_summary(artifact, passes: List[Dict]) -> Dict:
    """Fold replay passes into one record.

    Checks that PE cycles repeat exactly from pass to pass and that the
    datapath's deviation from the dequantized matmul stays within the
    FP16-accumulation bound.  The reported time is the sum over passes,
    which the run spreads out so that one slow stretch of the host
    weighs on one pass only.
    """
    cycles = [[r.pe_cycles for r in p["results"]] for p in passes]
    results = passes[0]["results"]
    over_bound = []
    for r in results:
        if r.batch != REPLAY_BATCHES[0]:
            continue
        w = unpack_tensor(artifact.packed[r.layer], artifact.tensor_config(r.layer))
        d = w.shape[1]
        gamma = d * FP16_U / (1 - d * FP16_U)
        bound = gamma * REPLAY_X_MAX * float(np.abs(w).sum(axis=1).max())
        worst = max(x.max_abs_err for p in passes for x in p["results"] if x.layer == r.layer)
        if not worst <= bound:
            over_bound.append(r.layer)
    return {
        "seconds": sum(p["seconds"] for p in passes),
        "pass_seconds": [p["seconds"] for p in passes],
        "macs": len(passes) * sum(r.batch * r.shape[0] * r.shape[1] for r in results),
        "pe_cycles": sum(cycles[0]),
        "groups_processed": sum(r.groups_processed for r in results),
        "max_abs_err": max(r.max_abs_err for p in passes for r in p["results"]),
        "cycles_repeat": all(c == cycles[0] for c in cycles),
        "over_bound": over_bound,
        "decode_cache_hits": passes[0]["cache"]["hits"],
        "decode_cache_misses": passes[0]["cache"]["misses"],
    }


# ----------------------------------------------------------------------
# Tracing overhead.
# ----------------------------------------------------------------------


def _closed_batch(engine, specs) -> float:
    batcher = ContinuousBatcher(engine)
    for i, s in enumerate(specs):
        tokens = min(s.max_new_tokens, OVERHEAD_PROBE_TOKENS)
        batcher.submit(Request(i, s.prompt, GenerationConfig(tokens, 0.0), tier=s.tier))
    t0 = time.perf_counter()
    batcher.run_until_idle()
    return time.perf_counter() - t0


def trace_overhead(spec: Spec, artifact, specs, weights) -> Dict:
    """Wall time of one closed batch untraced and traced (best of two
    each, alternating); the overhead is their difference over the
    untraced time."""

    def fresh():
        return InferenceEngine.from_artifact(
            artifact, mesh=_mesh(spec),
            prefix_cache=PrefixKVCache() if spec.prefix_cache else None,
        )

    plain, traced = [], []
    for _ in range(2):
        plain.append(_closed_batch(fresh(), specs))
        probe = LayerTrace()
        probe.install_serving(weights)
        TRACER.enabled = True
        try:
            traced.append(_closed_batch(fresh(), specs))
        finally:
            TRACER.enabled = False
            probe.uninstall()
            TRACER.drain()
    return {"untraced_s": min(plain), "traced_s": min(traced)}


# ----------------------------------------------------------------------
# One run.
# ----------------------------------------------------------------------


def _pct(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


@contextlib.contextmanager
def _tracing(layers: Optional[LayerTrace]):
    """Trace the block into ``layers``; a no-op when it is ``None``."""
    if layers is None:
        yield
        return
    TRACER.enabled = True
    try:
        yield
    finally:
        TRACER.enabled = False
        layers.fold()


def run_workload(spec: Spec, seed: int, seconds: float, traced: bool, work: Path):
    """Run ``spec`` once; returns (result line, details)."""
    details: Dict = {"workload": spec.name, "seed": seed, "seconds": seconds,
                     "traced": traced, "host": host_fingerprint(work.parent)}
    path = work / f"artifact-{os.getpid()}.rpro"
    engine, artifact, stages = set_up(spec, path)
    stage_runs = [stages]

    cfg = get_model_config(spec.model)
    workload = build_trace(spec, seed, seconds, cfg.sim_vocab)
    trace = workload.build()
    details["trace_sha256"] = workload.digest()
    details["warm_up_prompts"] = warm_up(engine, spec, trace)

    overhead = layers = None
    if traced:
        # Full-layout weights, for naming linears in the op split.
        weights = engine.model.weights if spec.tp == 1 else artifact.instantiate().weights
        overhead = trace_overhead(spec, artifact, trace[:OVERHEAD_PROBE_REQUESTS], weights)
        layers = LayerTrace()
        layers.install_serving(weights)
    try:
        with _tracing(layers):
            passes = [replay_pass(artifact, seed)]
        collective_before = engine.collective_stats() if spec.tp > 1 else None
        with _tracing(layers):
            run = serve_trace(engine, trace, spec.clients, spec.max_batch_tokens)
        collective = None
        if collective_before is not None:
            after = engine.collective_stats()
            collective = {
                "calls": sum(s["calls"] for s in after["ops"].values())
                - sum(s["calls"] for s in collective_before["ops"].values()),
                "wire_bytes": after["total_wire_bytes"] - collective_before["total_wire_bytes"],
                "modeled_s": after["total_modeled_seconds"] - collective_before["total_modeled_seconds"],
            }
        checks = check_streams(spec, artifact, trace, run, seed)
        for _ in range(SETUPS - 1):
            stage_runs.append(set_up(spec, path)[2])
            with _tracing(layers):
                passes.append(replay_pass(artifact, seed))
        done = [o for o in run.outcomes if o.outcome == "completed"]
        with _tracing(layers):
            t0 = time.perf_counter()
            hw = hardware_report(
                artifact, [RequestTrace(trace[o.index].prompt_len, len(o.tokens)) for o in done]
            )
            hw_seconds = time.perf_counter() - t0
    finally:
        if layers is not None:
            layers.uninstall()
    setup = {k: statistics.median(r[k] for r in stage_runs) for k in stage_runs[0]}
    details["setup"] = setup
    rep = replay_summary(artifact, passes)

    # ------------------------------------------------------------------
    outcomes = {k: run.count(k) for k in ("completed", "shed", "expired", "error")}
    mismatched = len(checks["mismatched"])
    attempted = len(run.outcomes)
    failed = attempted - outcomes["completed"] + mismatched
    errors = [o.error for o in run.outcomes if o.error][:5]
    ttft = [o.ttft_s for o in done]
    tbt = [o.tbt_s for o in done if o.tbt_s is not None]
    mismatched_ids = set(checks["mismatched"])
    slo_ok = sum(
        1 for o in done
        if o.index not in mismatched_ids and o.ttft_s <= spec.slo_ttft_s
        and (o.tbt_s is None or o.tbt_s <= spec.slo_tbt_s)
    )
    out_tokens = sum(len(o.tokens) for o in done)
    correct = (mismatched == 0 and outcomes["error"] == 0 and rep["cycles_repeat"]
               and not rep["over_bound"])
    details.update(
        outcomes=outcomes,
        failed_ratio=failed / attempted,
        errors=errors,
        checks=checks,
        replay=rep,
        outputs_sha256=hashlib.sha256(
            repr([o.tokens for o in run.outcomes]).encode()
        ).hexdigest(),
        slo={"ttft_s": spec.slo_ttft_s, "tbt_s": spec.slo_tbt_s},
        samples={"ttft": len(ttft), "tbt": len(tbt)},
        wall_s=run.wall_s,
    )
    if not traced:
        metrics = {
            "setup_s": (setup["setup_s"], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ttft_p50_s": (_pct(ttft, 50), "s"),
            "ttft_p95_s": (_pct(ttft, 95), "s"),
            "tbt_p50_s": (_pct(tbt, 50), "s"),
            "tbt_p95_s": (_pct(tbt, 95), "s"),
            "slo_ok_ratio": (slo_ok / attempted, "ratio"),
            "output_tok_per_s": (out_tokens / run.wall_s, "tok/s"),
            "replay_macs_per_s": (rep["macs"] / rep["seconds"], "MAC/s"),
        }
    else:
        metrics = layer_metrics(layers, run, setup, collective, rep, hw, hw_seconds,
                                overhead, out_tokens)
        details["reconciliation"] = metrics.pop("_reconciliation")
        # The op split must account for every nanosecond of decode.
        correct = correct and abs(details["reconciliation"]["accounted_share"] - 1) < 1e-9
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, details


def layer_metrics(t: LayerTrace, run: RunResult, setup: Dict, collective, rep, hw,
                  hw_seconds: float, overhead, out_tokens: int) -> Dict:
    """Every per-layer metric of a traced run (0 where the workload
    bypasses the layer)."""
    dec = "serve.engine.decode"
    decode_ns = t.total_ns(dec)
    decode_calls = max(len(t.samples["decode_ms"]), 1)
    per_tok = lambda ns: ns / 1e6 / decode_calls  # noqa: E731  ms per decode token
    op_ns = {op: t.total_ns("models.op." + op, dec) for op in OPS}
    collective_ns = t.total_ns("shard.collective", dec)
    unattributed_ns = t.total_ns("unattributed", dec)
    linear_ns = t.total_ns("linear", dec)
    linear_bytes = t.total_bytes("linear", dec)
    step_ns = t.total_ns("serve.batching.step")
    prefill_ns = t.total_ns("serve.engine.prefill")
    gen = max(out_tokens, 1)
    late = [o.late_s for o in run.outcomes]
    lookups = t.prefix["lookups"]
    m = {
        "load.send_late_p95_s": (_pct(late, 95), "s"),
        "serve.server.step_busy_share": (step_ns / 1e9 / run.wall_s, "ratio"),
        "serve.batching.step_ms_p50": (_pct(t.samples["step_ms"], 50), "ms"),
        "serve.batching.step_ms_p95": (_pct(t.samples["step_ms"], 95), "ms"),
        "serve.batching.decode_seqs_per_step_mean": (np.mean(t.samples["decode_seqs"]), "count"),
        "serve.batching.forwards_per_step_mean": (np.mean(t.samples["forwards"]), "count"),
        "serve.batching.queue_wait_p50_s": (_pct(t.samples["queue_wait_s"], 50), "s"),
        "serve.batching.queue_wait_p95_s": (_pct(t.samples["queue_wait_s"], 95), "s"),
        "serve.batching.waiting_depth_p95": (_pct(t.samples["waiting"], 95), "count"),
        "serve.engine.prefill_ms_p50": (_pct(t.samples["prefill_ms"], 50), "ms"),
        "serve.engine.prefill_tok_per_s": (t.computed_tokens / max(prefill_ns / 1e9, 1e-12), "tok/s"),
        "serve.engine.decode_ms_p50": (_pct(t.samples["decode_ms"], 50), "ms"),
        "serve.engine.decode_ms_p95": (_pct(t.samples["decode_ms"], 95), "ms"),
        "serve.engine.sample_share": (op_ns["sample"] / max(decode_ns, 1), "ratio"),
        "serve.prefix.hit_ratio": (t.prefix["hits"] / lookups if lookups else 0.0, "ratio"),
        "serve.prefix.reused_token_share": (t.reused_tokens / max(t.prompt_tokens, 1), "ratio"),
        "serve.prefix.ms_total": ((t.total_ns("serve.prefix.lookup") + t.total_ns("serve.prefix.insert")) / 1e6, "ms"),
        "serve.prefix.bytes_peak": (t.prefix["bytes_peak"], "bytes"),
        "models.kv.append_ms_per_token": (t.total_ns("models.op.kv_append") / 1e6 / gen, "ms"),
        "models.kv.bytes_copied_per_token": (t.total_bytes("kv_copied") / gen, "bytes"),
        "models.kv.bytes_peak": (t.kv_peak_bytes, "bytes"),
    }
    for op in OPS:
        m[f"models.op.{op}.ms_per_token"] = (per_tok(op_ns[op]), "ms")
        m[f"models.op.{op}.share"] = (op_ns[op] / max(decode_ns, 1), "ratio")
    m.update({
        "models.op.linear.bytes_per_token": (linear_bytes / decode_calls, "bytes"),
        "models.op.linear.gbps": (linear_bytes / max(linear_ns, 1), "GB/s"),
        "models.op.unattributed_share": (unattributed_ns / max(decode_ns, 1), "ratio"),
        "quant.kv.ms_per_token": (per_tok(t.total_ns("quant.kv", dec)), "ms"),
        "serve.artifact.pack_s": (setup["pack_s"], "s"),
        "serve.artifact.save_s": (setup["save_s"], "s"),
        "serve.artifact.load_s": (setup["load_s"], "s"),
        "serve.artifact.instantiate_s": (setup["instantiate_s"], "s"),
        "serve.artifact.packed_bytes": (setup["packed_bytes"], "bytes"),
        "shard.partition_s": (setup["partition_s"], "s"),
        "shard.collective.calls_per_token": ((collective or {}).get("calls", 0) / gen, "count"),
        "shard.collective.wire_bytes_per_token": ((collective or {}).get("wire_bytes", 0) / gen, "bytes"),
        "shard.collective.host_ms_per_token": (t.total_ns("shard.collective") / 1e6 / gen, "ms"),
        "shard.collective.modeled_s": ((collective or {}).get("modeled_s", 0.0), "s"),
        "kernels.dispatch.ms_total": (t.total_ns("kernel.dispatch") / 1e6, "ms"),
        "kernels.decode_cache.hit_ratio": (
            rep["decode_cache_hits"] / max(rep["decode_cache_hits"] + rep["decode_cache_misses"], 1), "ratio"),
        "hw.functional.run_packed_ms_p50": (_pct(t.samples["run_packed_ms"], 50), "ms"),
        "hw.functional.pe_cycles": (rep["pe_cycles"], "count"),
        "hw.functional.groups_processed": (rep["groups_processed"], "count"),
        "hw.simulator.modeled_ms_per_token": (hw.total_time_ms / gen, "ms"),
        "hw.simulator.modeled_uj_per_token": (hw.total_energy_uj / gen, "uJ"),
        "hw.simulator.host_us_per_call": (_pct(t.samples["simulate_us"], 50), "us"),
        "obs.trace_overhead_share": (
            (overhead["traced_s"] - overhead["untraced_s"]) / overhead["untraced_s"], "ratio"),
    })
    accounted = sum(op_ns.values()) + collective_ns + unattributed_ns
    m["_reconciliation"] = {
        "decode_ms_total": decode_ns / 1e6,
        "ops_ms": {op: ns / 1e6 for op, ns in op_ns.items()},
        "collective_ms": collective_ns / 1e6,
        "unattributed_ms": unattributed_ns / 1e6,
        "accounted_share": accounted / max(decode_ns, 1),
        "host_ms_per_token": decode_ns / 1e6 / decode_calls,
        "modeled_ms_per_token": hw.total_time_ms / gen,
        "hardware_report_s": hw_seconds,
        "trace_overhead": overhead,
    }
    return m
