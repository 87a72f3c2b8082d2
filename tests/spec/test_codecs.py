"""Round-trip and malformed-spec tests for every registered codec.

The round-trip contract is two-sided: ``from_spec(to_spec(x))`` must
equal ``x`` where the domain type defines ``==``, and must always be
fingerprint-identical — the property that makes a spec file hit the
same engine cache entries as the programmatic object it describes.
"""

import json

import numpy as np
import pytest

from repro.benchmarksuite.runner import BenchmarkRow
from repro.core.profile import DivergenceClass
from repro.core.workload import Kernel, Stage, TaskGraph
from repro.dse.space import DesignSpace, Parameter
from repro.engine.fingerprint import fingerprint
from repro.errors import SpecError
from repro.hw.catalog import uav_compute_tiers
from repro.hw.mapping import HeterogeneousSoC, Interconnect
from repro.kernels.planning.occupancy import CircleWorld
from repro.spec import (
    PLATFORMS,
    WORKLOADS,
    decode_design_space,
    decode_platform,
    decode_workload,
    from_spec,
    known_kinds,
    to_spec,
)
from repro.system.mission import MissionConfig
from repro.system.robot import BatteryModel, UavPhysics


def roundtrip(obj):
    """Encode, push through real JSON, decode — like a scenario file."""
    spec = json.loads(json.dumps(to_spec(obj)))
    clone = from_spec(spec)
    assert fingerprint(clone) == fingerprint(obj)
    return clone


class TestCoreRoundTrips:
    def test_profile(self, gemm_profile_512):
        clone = roundtrip(gemm_profile_512)
        assert clone == gemm_profile_512
        assert clone.divergence is DivergenceClass.NONE

    def test_stage(self, streaming_profile):
        stage = Stage("s0", streaming_profile, deps=("s1",),
                      output_bytes=4096.0, rate_hz=30.0,
                      deadline_s=0.05)
        assert roundtrip(stage) == stage

    def test_static_kernel(self, gemm_profile_512):
        kernel = Kernel("gemm", category="linalg",
                        static_profile=gemm_profile_512,
                        tags=("dense",))
        assert roundtrip(kernel) == kernel

    def test_kernel_with_profile_fn_is_rejected(self, gemm_profile_512):
        kernel = Kernel("gemm", profile_fn=lambda **kw: gemm_profile_512)
        with pytest.raises(SpecError, match="profile_fn"):
            to_spec(kernel)

    def test_task_graph(self, gemm_profile_512, streaming_profile):
        graph = TaskGraph("g", [
            Stage("a", gemm_profile_512, rate_hz=30.0),
            Stage("b", streaming_profile, deps=("a",)),
        ])
        assert roundtrip(graph) == graph

    def test_benchmark_row(self):
        row = BenchmarkRow("w", "t", 0.01, 0.2, 0.033)
        assert roundtrip(row) == row

    @pytest.mark.parametrize("name", WORKLOADS.names())
    def test_every_catalog_workload(self, name):
        workload = WORKLOADS.build(name)
        assert roundtrip(workload) == workload

    def test_workload_ref_form(self):
        workload = decode_workload({"ref": "vio-navigation"})
        assert fingerprint(workload) == \
            fingerprint(WORKLOADS.build("vio-navigation"))


class TestPlatformRoundTrips:
    @pytest.mark.parametrize("name", PLATFORMS.names())
    def test_every_catalog_platform(self, name):
        platform = PLATFORMS.build(name)
        clone = roundtrip(platform)
        assert type(clone) is type(platform)
        assert clone.name == platform.name

    def test_soc_round_trip(self):
        soc = HeterogeneousSoC(
            "gemm-soc", PLATFORMS.build("embedded-cpu"),
            [PLATFORMS.build("gemm-engine")],
            interconnect=Interconnect(bandwidth=12e9, latency_s=8e-6),
        )
        clone = roundtrip(soc)
        assert isinstance(clone, HeterogeneousSoC)
        assert [a.name for a in clone.accelerators] == ["gemm-engine"]

    def test_platform_ref_with_builder_override(self):
        platform = decode_platform({"ref": "embedded-cpu",
                                    "name": "renamed"})
        assert platform.name == "renamed"

    def test_ref_form_rejects_soc_where_device_needed(self):
        spec = to_spec(HeterogeneousSoC(
            "s", PLATFORMS.build("embedded-cpu"), []))
        with pytest.raises(SpecError,
                           match=r"\$\.host: expected a device"
                                 r" platform, got an SoC"):
            decode_platform({"kind": "soc", "name": "outer",
                             "host": spec, "accelerators": []})

    def test_tier_platforms_round_trip(self):
        for _, platform, _, _ in uav_compute_tiers():
            roundtrip(platform)


class TestSystemRoundTrips:
    def test_uav_and_battery(self):
        assert roundtrip(UavPhysics()) == UavPhysics()
        battery = BatteryModel(capacity_wh=80.0)
        assert roundtrip(battery) == battery

    def test_circle_world_explicit(self):
        world = CircleWorld([0.0, 0.0], [10.0, 10.0],
                            centers=[[4.0, 5.0]], radii=[1.0])
        roundtrip(world)  # == raises on ndarrays; fingerprint covers it

    def test_circle_world_random_form(self):
        decoded = from_spec({
            "kind": "circle-world",
            "random": {"n_obstacles": 5, "extent": 20.0, "seed": 7},
        })
        expected = CircleWorld.random(n_obstacles=5, extent=20.0,
                                      seed=7)
        assert fingerprint(decoded) == fingerprint(expected)

    def test_mission_config(self):
        world = CircleWorld.random(n_obstacles=4, extent=30.0, seed=1)
        config = MissionConfig(world=world,
                               start=np.array([1.0, 1.0]),
                               goal=np.array([28.0, 28.0]), laps=2)
        roundtrip(config)


class TestDseRoundTrips:
    def test_parameter(self):
        parameter = Parameter("tier", (0, 1, 2))
        assert roundtrip(parameter) == parameter

    def test_design_space(self):
        space = DesignSpace([Parameter("a", (1, 2)),
                             Parameter("b", ("x", "y"))])
        assert roundtrip(space) == space

    def test_design_space_ref_form(self):
        from repro.dse.objectives import codesign_space

        space = decode_design_space({"ref": "codesign"})
        assert space == codesign_space()

    def test_int_values_stay_ints(self):
        space = DesignSpace([Parameter("n", (128, 256))])
        clone = from_spec(json.loads(json.dumps(to_spec(space))))
        assert all(isinstance(v, int)
                   for v in clone.parameters[0].values)


class TestMalformedSpecs:
    def test_unknown_kind_lists_known(self):
        with pytest.raises(SpecError,
                           match=r"\$\.kind: unknown kind 'mystery'"):
            from_spec({"kind": "mystery"})
        assert "cpu" in known_kinds() and "scenario" in known_kinds()

    def test_wrong_scalar_type_has_dotted_path(self):
        spec = to_spec(PLATFORMS.build("embedded-cpu"))
        spec["cores"] = "four"
        with pytest.raises(SpecError,
                           match=r"\$\.cores: expected an integer,"
                                 r" got str"):
            from_spec(spec)

    def test_nested_error_path(self, gemm_profile_512):
        graph = to_spec(TaskGraph("g", [Stage("a", gemm_profile_512)]))
        graph["stages"][0]["profile"]["flops"] = "lots"
        with pytest.raises(
                SpecError,
                match=r"\$\.stages\[0\]\.profile\.flops:"):
            from_spec(graph)

    def test_task_graph_cycle_is_spec_error(self, gemm_profile_512):
        graph = {
            "kind": "task-graph", "name": "g",
            "stages": [to_spec(Stage("a", gemm_profile_512,
                                     deps=("a",)))],
        }
        with pytest.raises(SpecError, match=r"\$: task graph"):
            from_spec(graph)

    def test_unknown_platform_ref(self):
        with pytest.raises(SpecError,
                           match=r"\$: unknown platform ref 'nope'"):
            decode_platform({"ref": "nope"})

    def test_platform_kind_requires_ref(self):
        with pytest.raises(SpecError, match="ref short form"):
            from_spec({"kind": "platform", "name": "x"})

    def test_ref_form_rejects_foreign_kind(self):
        with pytest.raises(SpecError,
                           match=r"\$\.kind: a ref-form platform"):
            decode_platform({"kind": "cpu", "ref": "embedded-cpu"})

    def test_radius_range_must_be_a_pair(self):
        with pytest.raises(
                SpecError,
                match=r"\$\.random\.radius_range: expected exactly 2"):
            from_spec({"kind": "circle-world",
                       "random": {"radius_range": [1.0, 2.0, 3.0]}})

    def test_unknown_field_rejected(self):
        spec = to_spec(BatteryModel())
        spec["volts"] = 12
        with pytest.raises(SpecError,
                           match=r"\$: unknown field\(s\) 'volts'"):
            from_spec(spec)

    def test_missing_required_field(self):
        with pytest.raises(SpecError,
                           match=r"\$: missing required field 'name'"):
            from_spec({"kind": "profile", "flops": 1.0})

    def test_non_mapping_spec(self):
        with pytest.raises(SpecError, match="expected an object"):
            from_spec([1, 2, 3])

    def test_spec_without_kind(self):
        with pytest.raises(SpecError, match="kind"):
            from_spec({"name": "x"})
