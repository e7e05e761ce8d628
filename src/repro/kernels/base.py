"""The GEMM contract: one task in, one execution out.

The bit-accurate GEMM of :class:`repro.hw.functional.FunctionalGemm`
is a *contract* — given FP16 activations and a packed weight image it
must produce the exact outputs, cycle counts and group counts of the
scalar Fig. 6 datapath — and this module separates that contract from
how it is computed.  A :class:`GemmTask` bundles one GEMM's inputs; a
:class:`GemmExecution` is what every path returns for it.

The scalar :mod:`~repro.kernels.reference`, the integer-exact
:mod:`~repro.kernels.vectorized` path and the float32
:mod:`~repro.kernels.fused` path are all held to the bit-identity
property tests in ``tests/hw`` and ``tests/kernels``: identical
outputs, ``pe_cycles`` and ``groups_processed`` for every datatype.

This module is import-light on purpose (numpy only): the kernel paths
and the :mod:`repro.hw` layer both import it, so it must not import
either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

import numpy as np

__all__ = ["GemmExecution", "GemmTask"]


@dataclass
class GemmExecution:
    """Result of a functional GEMM run."""

    output: np.ndarray  # (M, K_out)
    pe_cycles: int  # cycles of the longest-running PE
    groups_processed: int


@dataclass
class GemmTask:
    """One functional GEMM: validated activations x a packed image.

    ``x`` is ``(M, D)`` float16 (already validated by the caller —
    :class:`~repro.hw.functional.FunctionalGemm` keeps shape/dtype
    policing in one place so every path sees identical inputs),
    ``packed`` a :class:`~repro.quant.packing.PackedTensor`, ``dtype``
    its resolved registry datatype, and ``pe_config`` the PE datapath
    widths the execution must be bit-faithful to.
    """

    x: np.ndarray
    packed: Any  # PackedTensor (kept untyped: base must not import quant)
    dtype: Any  # resolved registry datatype
    pe_config: Any  # repro.hw.pe.PEConfig

    def geometry(self) -> Tuple[int, int, int, int, int, int]:
        """``(m, k, d, g, gpc, pad)`` of the padded execution."""
        m = int(self.x.shape[0])
        k, d = self.packed.shape
        g = int(self.packed.group_size)
        gpc = self.packed.groups_per_channel or max(1, (d + g - 1) // g)
        pad = gpc * g - d
        return m, int(k), int(d), g, int(gpc), int(pad)

    def padded_x(self) -> np.ndarray:
        """Activations zero-padded up to the packed group layout."""
        *_, pad = self.geometry()
        if pad:
            return np.pad(self.x, ((0, 0), (0, pad)))
        return self.x

    def channel_scales(self) -> np.ndarray:
        """Per-channel second-level scales, validated against K."""
        k = int(self.packed.shape[0])
        chan = np.asarray(self.packed.channel_scales, dtype=np.float64).reshape(-1)
        if chan.size != k:
            raise ValueError(
                f"expected one channel scale per output channel "
                f"({k}), got {chan.size}"
            )
        return chan

    def sf_codes(self) -> np.ndarray:
        """Per-group scaling-factor codes as ``(K, groups_per_channel)``."""
        m, k, d, g, gpc, pad = self.geometry()
        return np.asarray(self.packed.sf_codes, dtype=np.int64).reshape(k, gpc)
