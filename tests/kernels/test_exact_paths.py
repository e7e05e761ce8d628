"""The two exact GEMM paths: selection rule and bit identity under
non-default PE configs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.dtypes.registry import list_dtypes
from repro.hw.functional import FunctionalGemm
from repro.hw.pe import PEConfig
from repro.kernels import fused, reference, select_path, vectorized
from repro.kernels.base import GemmTask
from repro.quant.config import QuantConfig
from repro.quant.packing import pack_tensor


def _task(rng, dtype="bitmod_fp4", m=2, k=3, d=64, pe_config=None):
    cfg = QuantConfig(dtype=dtype, group_size=32)
    return GemmTask(
        x=rng.standard_normal((m, d)).astype(np.float16),
        packed=pack_tensor(rng.standard_normal((k, d)), cfg),
        dtype=cfg.resolve_dtype(),
        pe_config=pe_config or PEConfig(),
    )


def _assert_same_execution(a, b):
    np.testing.assert_array_equal(a.output, b.output)
    assert a.pe_cycles == b.pe_cycles
    assert a.groups_processed == b.groups_processed


class TestSelection:
    def test_default_config_runs_fused(self, rng):
        assert select_path(_task(rng)) == "fused"

    @pytest.mark.parametrize(
        "pe_config",
        [PEConfig(acc_mantissa_bits=20), PEConfig(lanes=8, guard_bits=12)],
        ids=["narrow-accumulator", "wide-lane-sum"],
    )
    def test_uncovered_config_runs_numpy(self, rng, pe_config):
        task = _task(rng, pe_config=pe_config)
        assert fused.supports(task) is not None
        assert select_path(task) == "numpy"

    def test_dispatch_counter_names_the_path(self, rng):
        w = rng.standard_normal((3, 64))
        x = rng.standard_normal((2, 64)).astype(np.float16)
        cfg = QuantConfig(dtype="bitmod_fp4", group_size=32)
        obs.reset()
        FunctionalGemm(cfg).run(x, w)
        FunctionalGemm(cfg, PEConfig(acc_mantissa_bits=20)).run(x, w)
        counters = obs.snapshot()["counters"]
        assert counters["kernels.dispatch{backend=fused}"] == 1
        assert counters["kernels.dispatch{backend=numpy}"] == 1

    @pytest.mark.parametrize("dtype", ["bitmod_fp4", "int6_sym", "ant4"])
    def test_both_paths_agree_at_default_config(self, rng, dtype):
        task = _task(rng, dtype=dtype)
        ref = reference.run(task)
        _assert_same_execution(ref, fused.run(task))
        _assert_same_execution(ref, vectorized.run(task))


def _fused_covers(pe_config):
    """The documented rule: a 24-bit accumulator whose per-step lane
    sum of 11-bit FP16 mantissas, shifted by the guard bits, stays
    below 2**24."""
    return (
        pe_config.acc_mantissa_bits == 24
        and pe_config.lanes * (2047 << pe_config.guard_bits) < 1 << 24
    )


class TestPEConfigGrid:
    """Every corner of the PE-config grid, deterministically: the path
    follows the documented rule and matches the scalar reference."""

    @pytest.mark.parametrize("lanes", [2, 4, 8])
    @pytest.mark.parametrize("guard_bits", [0, 2, 3, 4])
    @pytest.mark.parametrize("acc_mantissa_bits", [12, 16, 20, 24, 32])
    def test_selected_path_matches_reference(
        self, rng, acc_mantissa_bits, guard_bits, lanes
    ):
        pe_config = PEConfig(
            lanes=lanes,
            guard_bits=guard_bits,
            acc_mantissa_bits=acc_mantissa_bits,
        )
        expected = "fused" if _fused_covers(pe_config) else "numpy"
        for dtype in ("bitmod_fp4", "int6_sym"):
            w = rng.standard_normal((3, 64)) * rng.uniform(0.05, 20.0)
            x = (rng.standard_normal((2, 64)) * 4).astype(np.float16)
            cfg = QuantConfig(dtype=dtype, group_size=32)
            gemm = FunctionalGemm(cfg, pe_config)
            task = gemm._task(x, pack_tensor(w, cfg))
            assert select_path(task) == expected
            obs.reset()
            _assert_same_execution(reference.run(task), gemm.run(x, w))
            counters = obs.snapshot()["counters"]
            assert counters[f"kernels.dispatch{{backend={expected}}}"] == 1


class TestNonDefaultPEConfig:
    """Any PE config: :class:`FunctionalGemm` equals the scalar
    reference bit for bit, or both reject with the same error type
    (which check fires first may differ, so messages can too)."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        dtype=st.sampled_from(list_dtypes()),
        acc_mantissa_bits=st.sampled_from([12, 16, 20, 24, 32]),
        guard_bits=st.sampled_from([0, 2, 3, 4]),
        lanes=st.sampled_from([2, 4, 8]),
        sf_bits=st.sampled_from([4, 6, 8]),
        m=st.integers(1, 2),
        k=st.integers(1, 3),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(
        self, seed, dtype, acc_mantissa_bits, guard_bits, lanes, sf_bits, m, k
    ):
        rng = np.random.default_rng(seed)
        d = int(rng.choice([32, 64]))
        w = rng.standard_normal((k, d)) * rng.uniform(0.05, 20.0)
        x = (rng.standard_normal((m, d)) * rng.uniform(0.1, 8.0)).astype(np.float16)
        pe_config = PEConfig(
            lanes=lanes,
            guard_bits=guard_bits,
            acc_mantissa_bits=acc_mantissa_bits,
            sf_bits=sf_bits,
        )
        cfg = QuantConfig(dtype=dtype, group_size=32)
        gemm = FunctionalGemm(cfg, pe_config)
        try:
            ref = reference.run(gemm._task(x, pack_tensor(w, cfg)))
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc)):
                gemm.run(x, w)
            return
        _assert_same_execution(ref, gemm.run(x, w))
