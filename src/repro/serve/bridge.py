"""Bridge from served requests to the accelerator model.

The serving engine runs at sim scale, but the hardware questions —
how many cycles, how much energy would this traffic cost on the
accelerator — are asked at full model scale.  This module replays
request traces (prompt length, generated length) through
:func:`repro.hw.simulator.simulate` at the artifact's packed
precision, yielding modeled latency and an energy breakdown per
request plus fleet-level aggregates.

:func:`functional_replay` goes one level deeper: it pushes real
batched activations through the *bit-accurate* vectorized PE datapath
(:meth:`repro.hw.functional.FunctionalGemm.run_packed`) against the
artifact's packed weight images, yielding measured PE cycles and a
numerical cross-check of the packed tensors — feasible at serving
batch sizes now that the kernel engine is vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.hw.baselines import make_accelerator
from repro.hw.functional import FunctionalGemm
from repro.hw.pe import PEConfig
from repro.hw.simulator import SimResult, simulate
from repro.models.zoo import get_model_config
from repro.serve.artifact import ModelArtifact

__all__ = [
    "RequestTrace",
    "HardwareReport",
    "hardware_report",
    "FunctionalReplay",
    "functional_replay",
]


@dataclass(frozen=True)
class RequestTrace:
    """The shape of one served request."""

    prompt_len: int
    gen_len: int

    @property
    def total_tokens(self) -> int:
        return self.prompt_len + self.gen_len


def _as_trace(obj: Union[RequestTrace, "GenerationResult"]) -> RequestTrace:
    if isinstance(obj, RequestTrace):
        return obj
    # GenerationResult duck-type: prompt_len + n_generated.
    return RequestTrace(prompt_len=obj.prompt_len, gen_len=obj.n_generated)


@dataclass
class HardwareReport:
    """Modeled accelerator cost of a batch of served requests."""

    model: str
    accelerator: str
    weight_bits: float
    per_request: List[SimResult]

    @property
    def n_requests(self) -> int:
        return len(self.per_request)

    @property
    def total_time_ms(self) -> float:
        return sum(r.time_ms for r in self.per_request)

    @property
    def total_energy_uj(self) -> float:
        return sum(r.energy.total_uj for r in self.per_request)

    @property
    def energy_per_request_uj(self) -> float:
        return self.total_energy_uj / self.n_requests if self.n_requests else 0.0

    def to_dict(self) -> Dict:
        return {
            "model": self.model,
            "accelerator": self.accelerator,
            "weight_bits": self.weight_bits,
            "n_requests": self.n_requests,
            "total_time_ms": self.total_time_ms,
            "total_energy_uj": self.total_energy_uj,
            "energy_per_request_uj": self.energy_per_request_uj,
            "per_request": [
                {
                    "time_ms": r.time_ms,
                    "energy_uj": r.energy.total_uj,
                    "dram_uj": r.energy.dram_uj,
                    "onchip_uj": r.energy.onchip_uj,
                }
                for r in self.per_request
            ],
        }


@dataclass
class FunctionalReplay:
    """Bit-accurate replay of one packed linear at a serving batch size."""

    layer: str
    batch: int
    shape: tuple
    pe_cycles: int
    groups_processed: int
    #: Max |PE output - x @ w_deq.T| — the datapath's FP16-accumulation
    #: deviation from the ideal dequantized matmul.
    max_abs_err: float

    @property
    def cycles_per_output(self) -> float:
        k = self.shape[0]
        return self.pe_cycles / (self.batch * k) if self.batch * k else 0.0


def functional_replay(
    artifact: ModelArtifact,
    batch_size: int,
    layers: Optional[Sequence[str]] = None,
    seed: int = 0,
) -> List[FunctionalReplay]:
    """Replay packed linears through the bit-accurate PE datapath.

    ``batch_size`` is the number of concurrent sequence slots (the
    GEMM M dimension of one continuous-batching decode step).  Each
    selected layer's packed image is decoded once (memoized in the
    bounded kernel decode cache) and multiplied against random FP16
    activations by :class:`~repro.hw.functional.FunctionalGemm`; the
    result is validated against the dequantized-matmul reference.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    names = list(layers) if layers is not None else sorted(artifact.packed)
    rng = np.random.default_rng(seed)
    out: List[FunctionalReplay] = []
    for name in names:
        packed = artifact.packed[name]
        gemm = FunctionalGemm(artifact.tensor_config(name), PEConfig())
        k, d = packed.shape
        x = rng.standard_normal((batch_size, d)).astype(np.float16)
        res = gemm.run_packed(x, packed)
        from repro.quant.packing import unpack_tensor

        w_deq = unpack_tensor(packed, artifact.tensor_config(name))
        ref = x.astype(np.float64) @ w_deq.T
        out.append(
            FunctionalReplay(
                layer=name,
                batch=batch_size,
                shape=tuple(packed.shape),
                pe_cycles=res.pe_cycles,
                groups_processed=res.groups_processed,
                max_abs_err=float(np.max(np.abs(res.output - ref))) if ref.size else 0.0,
            )
        )
    return out


def hardware_report(
    artifact_or_model: Union[ModelArtifact, str],
    traces: Iterable,
    accelerator: str = "bitmod",
    weight_bits: float = None,
) -> HardwareReport:
    """Model the accelerator cost of served-request ``traces``.

    ``artifact_or_model`` is a :class:`ModelArtifact` (precision taken
    from the packed tensors) or a zoo model name (then ``weight_bits``
    must be given).  Traces are :class:`RequestTrace` instances or
    :class:`~repro.serve.server.GenerationResult` objects.
    """
    if isinstance(artifact_or_model, ModelArtifact):
        model_name = artifact_or_model.model_name
        if weight_bits is None:
            weight_bits = artifact_or_model.mean_bits_per_weight
    else:
        model_name = artifact_or_model
        if weight_bits is None:
            raise ValueError("weight_bits is required when passing a model name")

    cfg = get_model_config(model_name)
    accel = make_accelerator(accelerator)
    results = []
    for obj in traces:
        trace = _as_trace(obj)
        if trace.gen_len < 1:
            raise ValueError("traces must include at least one generated token")
        results.append(
            simulate(
                cfg,
                accel,
                "generative",
                weight_bits=weight_bits,
                prompt_len=trace.prompt_len,
                gen_len=trace.gen_len,
            )
        )
    return HardwareReport(
        model=model_name,
        accelerator=accelerator,
        weight_bits=float(weight_bits),
        per_request=results,
    )
