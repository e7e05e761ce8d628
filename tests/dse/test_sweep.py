"""End-to-end sweep evaluation: records, caching, point keys."""

import pytest

from repro.dse.space import DatatypeChoice, DesignSpace, DesignPoint
from repro.dse.sweep import (
    accelerator_for,
    functional_check,
    point_key,
    run_points,
    run_sweep,
)
from repro.hw.baselines import make_accelerator
from repro.hw.simulator import simulate
from repro.models.zoo import get_model_config
from repro.pipeline import Engine
from repro.pipeline.store import CacheStore


@pytest.fixture
def space():
    return DesignSpace(
        name="t",
        arch_axes=(("pe_lanes", (4, 8)), ("dram_gbps", (25.6, 51.2))),
        datatypes=(DatatypeChoice(4, "bitmod_fp4"),),
        models=("opt-1.3b",),
        tasks=("generative",),
        quick=True,
    )


@pytest.fixture
def engine(tmp_path):
    return Engine(store=CacheStore(tmp_path))


class TestPointKey:
    def _point(self, **kw):
        spec = make_accelerator("bitmod")
        defaults = dict(
            space="t",
            arch=spec.arch,
            model="opt-1.3b",
            task="generative",
            weight_bits=4,
        )
        defaults.update(kw)
        return DesignPoint(**defaults)

    def test_stable(self):
        assert point_key(self._point()) == point_key(self._point())

    def test_sensitive_to_arch(self):
        other = make_accelerator("ant").arch
        assert point_key(self._point()) != point_key(self._point(arch=other))

    def test_sensitive_to_workload_and_bits(self):
        base = point_key(self._point())
        assert base != point_key(self._point(task="discriminative"))
        assert base != point_key(self._point(weight_bits=6))
        assert base != point_key(self._point(model="phi-2b"))

    def test_sensitive_to_dtype(self):
        with_dt = self._point(dtype=DatatypeChoice(4, "bitmod_fp4"))
        assert point_key(self._point()) != point_key(with_dt)

    def test_sensitive_to_cell_schema(self, monkeypatch):
        """Changing cell-evaluation semantics must invalidate records
        of accuracy-bearing points (sim-only points are unaffected)."""
        import repro.pipeline.cells as cells

        with_dt = self._point(dtype=DatatypeChoice(4, "bitmod_fp4"))
        sim_only = self._point()
        before = point_key(with_dt), point_key(sim_only)
        monkeypatch.setattr(cells, "CELL_SCHEMA_VERSION", 999)
        assert point_key(with_dt) != before[0]
        assert point_key(sim_only) == before[1]


class TestRunSweep:
    def test_records_align_and_carry_metrics(self, space, engine):
        res = run_sweep(space, engine=engine)
        assert len(res.records) == len(res.points) == 4
        assert res.computed == 4 and res.cached == 0
        for p, r in zip(res.points, res.records):
            assert r["model"] == p.model
            assert r["bits"] == p.weight_bits
            assert r["arch"]["dram_gbps"] == p.arch.dram_gbps
            assert r["cycles"] > 0 and r["total_uj"] > 0 and r["edp"] > 0
            assert r["ppl"] is not None
            assert r["dppl"] == pytest.approx(r["ppl"] - r["fp16_ppl"])
            assert r["area_mm2"] > 0

    def test_warm_rerun_is_pure_cache(self, space, engine):
        cold = run_sweep(space, engine=engine)
        warm = run_sweep(space, engine=engine)
        assert warm.computed == 0
        assert warm.cached == len(cold.records)
        assert warm.records == cold.records

    def test_more_bandwidth_is_faster(self, space, engine):
        res = run_sweep(space, engine=engine)
        by = {
            (r["arch"]["pe_lanes"], r["arch"]["dram_gbps"]): r["time_ms"]
            for r in res.records
        }
        # Generative decode is memory-bound: bandwidth helps, lanes don't.
        assert by[(4, 51.2)] < by[(4, 25.6)]
        assert by[(8, 51.2)] < by[(8, 25.6)]

    def test_frontier_subset_of_records(self, space, engine):
        res = run_sweep(space, engine=engine)
        front = res.frontier(("ppl", "edp"), ("min", "min"))
        assert front
        for r in front:
            assert r in res.records

    def test_frontier_is_per_workload(self, space, engine):
        """Each (model, task) keeps its own front — EDP values of
        different workloads must never compete."""
        two_model = space.with_(models=("opt-1.3b", "phi-2b"))
        res = run_sweep(two_model, engine=engine)
        front = res.frontier(("ppl", "edp"), ("min", "min"))
        assert {r["model"] for r in front} == {"opt-1.3b", "phi-2b"}


class TestRunPoints:
    def test_sim_only_matches_simulator(self, engine):
        """A dtype-less point reproduces the raw simulate() numbers."""
        spec = make_accelerator("bitmod")
        point = DesignPoint(
            space="t",
            arch=spec.arch,
            model="llama-2-7b",
            task="generative",
            weight_bits=6,
            kv_bits=spec.kv_bits,
        )
        (rec,), computed = run_points([point], engine=engine)
        assert computed == 1
        ref = simulate(get_model_config("llama-2-7b"), spec, "generative", 6)
        assert rec["cycles"] == ref.cycles
        assert rec["total_uj"] == ref.energy.total_uj
        assert rec["ppl"] is None

    def test_group_size_reaches_the_timing_model(self, engine):
        """Tiny scale groups must surface as dequantization stalls."""
        spec = make_accelerator("bitmod")
        arch = spec.arch.__class__(**{**spec.arch.__dict__, "pe_lanes": 8})
        common = dict(
            space="t", arch=arch, model="opt-1.3b", task="discriminative",
            weight_bits=4,
        )
        wide = DesignPoint(group_size=128, **common)
        tiny = DesignPoint(group_size=16, **common)
        assert point_key(wide) != point_key(tiny)
        records, _ = run_points([wide, tiny], engine=engine)
        # 16-element groups at 8 lanes x 2 terms take 4 cycles — shorter
        # than the 8-cycle scale multiply, so every group stalls.
        assert records[1]["cycles"] > records[0]["cycles"]

    def test_duplicates_computed_once(self, engine):
        spec = make_accelerator("bitmod")
        point = DesignPoint(
            space="t",
            arch=spec.arch,
            model="opt-1.3b",
            task="generative",
            weight_bits=4,
        )
        records, computed = run_points([point, point, point], engine=engine)
        assert computed == 1
        assert records[0] == records[1] == records[2]


class TestAcceleratorFor:
    def test_carries_point_fields(self):
        spec = make_accelerator("fp16")
        point = DesignPoint(
            space="t",
            arch=spec.arch,
            model="opt-1.3b",
            task="generative",
            weight_bits=16,
            kv_bits=16,
            macs_per_cycle=2.0,
        )
        a = accelerator_for(point)
        assert a.arch is spec.arch
        assert a.kv_bits == 16
        assert a.macs_per_cycle == 2.0
        assert a.supported_bits == (16,)


class TestFunctionalCheck:
    def _point(self, dtype, granularity="group", group_size=128, **kw):
        spec = make_accelerator("bitmod")
        return DesignPoint(
            space="t",
            arch=spec.arch,
            model="opt-1.3b",
            task="generative",
            weight_bits=4,
            dtype=None if dtype is None else DatatypeChoice(4, dtype, granularity),
            group_size=group_size,
            **kw,
        )

    def test_one_row_per_unique_combo(self):
        points = [
            self._point("bitmod_fp4"),
            self._point("bitmod_fp4"),  # duplicate combo
            self._point("bitmod_fp4", group_size=64),
            self._point("int6_sym"),
            self._point(None),  # sim-only: no datatype to check
        ]
        rows = functional_check(points)
        assert len(rows) == 3
        for row in rows:
            assert row["skipped"] is None
            assert row["backend"] is not None
            assert row["max_abs_err"] < 1e-2

    def test_asymmetric_dtype_reported_skipped(self):
        rows = functional_check([self._point("int4_asym")])
        assert len(rows) == 1
        assert rows[0]["skipped"] is not None
        assert "zero-point" in rows[0]["skipped"]
        assert rows[0]["backend"] is None

    def test_default_pe_reports_fused_path(self):
        rows = functional_check([self._point("bitmod_fp4")])
        assert rows[0]["backend"] == "fused"
