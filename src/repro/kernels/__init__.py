"""repro.kernels — the bit-serial GEMM as one exact function.

The bit-accurate functional GEMM is a contract (outputs, cycle and
group counts bit-identical to the scalar Fig. 6 datapath).
:func:`run_gemm` executes it through one of two exact paths, chosen
by a rule that depends only on the task:

* :mod:`repro.kernels.fused` — single-pass float32 tensor math, exact
  for the default 24-bit accumulator (see its module docstring for
  the proof); runs whenever ``fused.supports(task) is None``;
* :mod:`repro.kernels.vectorized` — the integer-exact ``numpy`` path,
  which executes any :class:`~repro.hw.pe.PEConfig` width and runs
  every task ``fused`` declines.

:mod:`repro.kernels.reference` is the scalar ground truth both are
tested against; :mod:`repro.kernels.cache` is the bounded LRU for
per-tensor decoded term arrays and the fused layout
(``$REPRO_KERNEL_CACHE_MB``).
"""

from repro import obs
from repro.kernels.base import GemmExecution, GemmTask
from repro.kernels.cache import DecodeCache, decode_cache, reset_decode_cache
from repro.kernels import fused, vectorized

__all__ = [
    "DecodeCache",
    "GemmExecution",
    "GemmTask",
    "decode_cache",
    "reset_decode_cache",
    "run_gemm",
    "select_path",
]

_PATHS = {"fused": fused.run, "numpy": vectorized.run}


def select_path(task: GemmTask) -> str:
    """``"fused"`` when the float32 proof covers ``task``, else ``"numpy"``."""
    return "fused" if fused.supports(task) is None else "numpy"


def run_gemm(task: GemmTask) -> GemmExecution:
    """Execute ``task`` on its exact path, counted and (when tracing)
    spanned under ``kernel.dispatch`` with the path as ``backend``."""
    path = select_path(task)
    obs.counter("kernels.dispatch", backend=path).inc()
    if obs.trace_enabled():
        m, k, d, *_ = task.geometry()
        with obs.span(
            "kernel.dispatch", backend=path,
            dtype=task.packed.dtype_name, m=m, k=k, d=d,
        ):
            return _PATHS[path](task)
    return _PATHS[path](task)
