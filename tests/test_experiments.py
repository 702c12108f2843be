"""Tests for the declarative experiment API: specs, registries, sweep engine."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.common.errors import ConfigurationError
from repro.common.registry import Registry, paradigm_registry, register_paradigm
from repro.experiments import (
    RESULT_SCHEMA_VERSION,
    SPEC_SCHEMA_VERSION,
    ExperimentSpec,
    ScenarioSpec,
    SweepEngine,
    config_overrides,
    single_point_spec,
)
from repro.common.config import SystemConfig
from repro.paradigms import OXIIDeployment
from repro.paradigms.run import execute_run, make_deployment, prepare_driver
from repro.workload.generator import ConflictScope, WorkloadConfig

QUICK_RUN = dict(duration=0.4, drain=1.0)


def tiny_spec(**overrides) -> ExperimentSpec:
    data = {
        "name": "tiny",
        "loads": [400.0],
        "duration": 0.4,
        "drain": 1.0,
        "scenarios": [
            {"name": "oxii", "paradigm": "OXII", "contention": 0.2},
            {"name": "ox", "paradigm": "OX"},
        ],
    }
    data.update(overrides)
    return ExperimentSpec.from_dict(data)


class TestScenarioSpec:
    def test_defaults_and_validation(self):
        scenario = ScenarioSpec(name="s")
        assert scenario.paradigm == "OXII"
        assert scenario.generator == "accounting"
        assert scenario.conflict_scope == ConflictScope.WITHIN_APPLICATION.value

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="")
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="s", contention=1.5)
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="s", conflict_scope="sideways")
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="s", loads=(0.0,))

    def test_rejects_reserved_workload_keys(self):
        for key in ("contention", "conflict_scope", "seed"):
            with pytest.raises(ConfigurationError, match="scenario/experiment-level"):
                ScenarioSpec(name="s", workload={key: 1})

    def test_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError, match="unknown scenario field"):
            ScenarioSpec.from_dict({"name": "s", "block_size": 100})

    def test_faults_section_validated_and_round_tripped(self):
        scenario = ScenarioSpec(name="s", faults={"random": {"events": 3, "horizon": 1.0}})
        assert ScenarioSpec.from_dict(scenario.to_dict()) == scenario
        with pytest.raises(ConfigurationError, match="'events' or 'random'"):
            ScenarioSpec(name="s", faults={"chaos": True})
        with pytest.raises(ConfigurationError, match="must be a mapping"):
            ScenarioSpec(name="s", faults=["crash"])

    def test_faults_reach_the_expanded_points(self):
        spec = tiny_spec(
            scenarios=[
                {"name": "adversarial", "paradigm": "OX",
                 "system": {"recovery": {"enabled": True}},
                 "faults": {"random": {"events": 2, "horizon": 1.0}}},
            ]
        )
        point = spec.expand()[0]
        assert point.faults == {"random": {"events": 2, "horizon": 1.0}}
        assert point.as_dict()["faults"] == point.faults


class TestExperimentSpecRoundTrip:
    def test_dict_round_trip(self):
        spec = tiny_spec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_json_file_round_trip(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "spec.json"
        spec.to_json(path)
        assert ExperimentSpec.from_file(path) == spec

    def test_toml_file_round_trip(self, tmp_path):
        path = tmp_path / "spec.toml"
        path.write_text(
            "\n".join(
                [
                    'name = "toml-spec"',
                    "loads = [500.0]",
                    "duration = 0.4",
                    "[[scenarios]]",
                    'name = "xov"',
                    'paradigm = "XOV"',
                    "contention = 0.8",
                    "[scenarios.system.block_cut]",
                    "max_transactions = 100",
                ]
            ),
            encoding="utf-8",
        )
        spec = ExperimentSpec.from_file(path)
        assert spec.name == "toml-spec"
        scenario = spec.scenario("xov")
        assert scenario.system == {"block_cut": {"max_transactions": 100}}
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_unsupported_file_type(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("name: nope\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="unsupported spec file type"):
            ExperimentSpec.from_file(path)

    def test_unknown_fields_and_schema_version(self):
        with pytest.raises(ConfigurationError, match="unknown experiment field"):
            tiny_spec(threads=8)
        with pytest.raises(ConfigurationError, match="schema_version"):
            tiny_spec(schema_version=SPEC_SCHEMA_VERSION + 1)

    def test_non_integer_repeats_rejected_at_load(self):
        with pytest.raises(ConfigurationError, match="repeats must be an integer"):
            tiny_spec(repeats=1.5)
        assert tiny_spec(repeats=2.0).repeats == 2  # integral floats coerce

    def test_duplicate_scenario_names_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate scenario name"):
            tiny_spec(scenarios=[{"name": "a"}, {"name": "a"}])

    def test_needs_scenarios_and_loads(self):
        with pytest.raises(ConfigurationError, match="at least one scenario"):
            tiny_spec(scenarios=[])
        with pytest.raises(ConfigurationError, match="no loads"):
            tiny_spec(loads=[])

    def test_spec_hash_tracks_content(self):
        spec = tiny_spec()
        assert spec.spec_hash() == tiny_spec().spec_hash()
        assert spec.spec_hash() != tiny_spec(name="other").spec_hash()


class TestMatrixExpansion:
    def test_matrix_shape_and_order(self):
        spec = tiny_spec(loads=[400.0, 800.0], seeds=[1, 2], repeats=2)
        points = spec.expand()
        # 2 scenarios x 2 seeds x 2 repeats x 2 loads
        assert len(points) == 16
        assert [p.index for p in points] == list(range(16))
        first = points[0]
        assert (first.scenario, first.base_seed, first.repeat, first.offered_load) == (
            "oxii", 1, 0, 400.0,
        )
        # Repeats decorrelate the effective seed but stay deterministic.
        from repro.experiments.spec import repeat_seed

        seeds = {(p.base_seed, p.repeat, p.seed) for p in points}
        assert all(seed == repeat_seed(base, repeat) for base, repeat, seed in seeds)
        assert all(seed == base for base, repeat, seed in seeds if repeat == 0)

    def test_repeat_seeds_never_collide_across_base_seeds(self):
        # A linear stride (seed + r*K) would make (7, r=1) collide with
        # (7+K, r=0); the hash-based derivation must keep every point distinct.
        spec = tiny_spec(seeds=[7, 7926], repeats=2)
        effective = [(p.scenario, p.seed) for p in spec.expand()]
        assert len(set(effective)) == len(effective)

    def test_scenario_loads_override_experiment_default(self):
        spec = tiny_spec(
            scenarios=[{"name": "s", "paradigm": "OX", "loads": [123.0, 456.0]}]
        )
        assert [p.offered_load for p in spec.expand()] == [123.0, 456.0]

    def test_point_workload_carries_scenario_fields(self):
        spec = tiny_spec()
        point = spec.expand()[0]
        assert point.workload["contention"] == 0.2
        assert point.workload["conflict_scope"] == ConflictScope.WITHIN_APPLICATION.value
        assert point.workload["seed"] == 7


class TestConfigOverrides:
    def test_round_trips_system_config(self):
        config = SystemConfig(num_orderers=5).with_block_size(50).with_far_groups(["clients"])
        overrides = config_overrides(config)
        assert overrides == {
            "num_orderers": 5,
            "block_cut": {"max_transactions": 50},
            "far_groups": ["clients"],
        }
        assert SystemConfig().with_overrides(**overrides) == config

    def test_default_config_has_no_overrides(self):
        assert config_overrides(SystemConfig()) == {}


class TestRegistry:
    def test_builtins_registered(self):
        assert set(paradigm_registry) == {"OX", "XOV", "OXII"}
        assert paradigm_registry.get("oxii") is OXIIDeployment  # case-insensitive

    def test_unknown_name_lists_known(self):
        with pytest.raises(ConfigurationError, match="unknown paradigm 'POW'"):
            paradigm_registry.get("POW")

    def test_duplicate_rejected_same_object_idempotent(self):
        registry = Registry("thing")
        registry.register("a", object())
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register("a", object())
        same = registry.get("a")
        assert registry.register("a", same) is same  # re-registering is a no-op
        registry.register("a", object(), replace=True)  # explicit override allowed

    def test_every_deployment_respects_contract_field(self):
        from repro.contracts.kvstore import KeyValueContract
        from repro.paradigms import OXDeployment, XOVDeployment

        config = SystemConfig().with_overrides(contract="kvstore")
        for deployment_cls in (OXDeployment, XOVDeployment, OXIIDeployment):
            contracts = deployment_cls(config).build_contracts()
            assert all(
                isinstance(contracts.contract(app), KeyValueContract)
                for app in contracts.applications()
            ), deployment_cls.__name__

    def test_decorator_registration(self):
        @register_paradigm("TESTONLY")
        class TestOnlyDeployment(OXIIDeployment):
            pass

        try:
            assert "TESTONLY" in paradigm_registry
            assert paradigm_registry.get("testonly") is TestOnlyDeployment
        finally:
            paradigm_registry.unregister("TESTONLY")
        assert "TESTONLY" not in paradigm_registry


class TestSweepEngine:
    def test_serial_and_parallel_results_identical(self):
        spec = tiny_spec()
        serial = SweepEngine(parallel=False).run(spec)
        parallel = SweepEngine(workers=2).run(spec)
        assert parallel.provenance["engine"]["parallel"] is True
        assert [r.metrics for r in serial.rows] == [r.metrics for r in parallel.rows]
        assert [r.point for r in serial.rows] == [r.point for r in parallel.rows]

    def test_same_spec_same_rows(self):
        spec = tiny_spec()
        first = SweepEngine(parallel=False).run(spec)
        second = SweepEngine(parallel=False).run(spec)
        assert first.rows_as_dicts() == second.rows_as_dicts()

    def test_result_provenance_and_json(self, tmp_path):
        spec = tiny_spec(scenarios=[{"name": "oxii", "loads": [1000.0]}], loads=[1000.0])
        result = SweepEngine(parallel=False).run(spec)
        assert result.provenance["result_schema_version"] == RESULT_SCHEMA_VERSION
        assert result.provenance["spec_hash"] == spec.spec_hash()
        path = tmp_path / "result.json"
        result.to_json(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["provenance"]["spec_schema_version"] == SPEC_SCHEMA_VERSION
        assert payload["spec"] == spec.to_dict()
        assert len(payload["rows"]) == 1
        row = payload["rows"][0]
        assert row["scenario"] == "oxii"
        assert row["committed"] > 0

    def test_scenario_overrides_reach_the_deployment(self):
        spec = ExperimentSpec.from_dict(
            {
                "name": "override-probe",
                "loads": [300.0],
                "duration": 0.4,
                "drain": 1.0,
                "scenarios": [
                    {
                        "name": "small-blocks",
                        "paradigm": "OXII",
                        "system": {"block_cut": {"max_transactions": 10}},
                        "workload": {"num_clients": 5},
                    }
                ],
            }
        )
        result = SweepEngine(parallel=False).run(spec)
        metrics = result.rows[0].metrics
        # 10-transaction blocks => many more blocks than the 200-tx default.
        assert metrics.blocks_committed >= 10
        assert metrics.committed > 0


class TestFigureSpecEquivalence:
    def test_figure6_legacy_path_equals_json_spec_run(self, tmp_path):
        from repro.bench.figure6 import figure6_spec, run_figure6
        from repro.bench.runner import BenchmarkSettings

        settings = BenchmarkSettings(quick=True, duration=0.4, drain=1.0)
        legacy = run_figure6(
            contention_levels=[0.0], settings=settings, include_cross_application=False
        )

        # The same grid as a JSON spec file, run through the generic engine.
        path = tmp_path / "figure6_quick.json"
        figure6_spec([0.0], settings, include_cross_application=False).to_json(path)
        result = SweepEngine(parallel=False).run(ExperimentSpec.from_file(path))

        engine_metrics = [row.metrics.as_dict() for row in result.rows]
        legacy_metrics = [
            {key: row[key] for key in engine_metrics[0]} for row in legacy.as_rows()
        ]
        assert legacy_metrics == engine_metrics

    def test_figure6_spec_uses_explicit_base_config_exactly(self):
        # Legacy contract: a caller-supplied config is used as given, block
        # size included — the per-paradigm defaults must not overwrite it.
        from repro.bench.figure6 import figure6_spec
        from repro.bench.runner import BenchmarkSettings

        base = SystemConfig().with_block_size(400)
        spec = figure6_spec([0.2], BenchmarkSettings(quick=True), base_config=base)
        for scenario in spec.scenarios:
            assert scenario.system == {"block_cut": {"max_transactions": 400}}


class TestExecuteRun:
    def test_execute_run_matches_engine(self):
        spec = single_point_spec(
            "point", "OXII", offered_load=300.0, contention=0.2, seed=11, **QUICK_RUN
        )
        engine_metrics = SweepEngine(parallel=False).run(spec).rows[0].metrics
        direct_metrics = execute_run(
            "OXII",
            offered_load=300.0,
            workload_config=WorkloadConfig(num_applications=3, contention=0.2),
            seed=11,
            **QUICK_RUN,
        )
        assert direct_metrics == engine_metrics

    def test_seed_copy_preserves_every_workload_field(self):
        # An earlier single-run helper rebuilt WorkloadConfig field-by-field and silently
        # dropped newly added fields; dataclasses.replace must keep them all.
        custom = WorkloadConfig(
            num_applications=3, num_clients=5, contention=0.5, hot_accounts=2
        )
        with_seed = execute_run(
            "OXII",
            workload_config=custom,
            offered_load=300.0,
            seed=3,
            **QUICK_RUN,
        )
        explicit = execute_run(
            "OXII",
            workload_config=dataclasses.replace(custom, seed=3),
            offered_load=300.0,
            **QUICK_RUN,
        )
        assert with_seed == explicit

    def test_unknown_paradigm_raises_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown paradigm"):
            execute_run("pow")

    @pytest.mark.parametrize(
        "window, message",
        [
            ({"drain": -1.0}, "drain >= 0"),
            ({"warmup_fraction": -0.5}, r"warmup_fraction must be in \[0, 1\)"),
            ({"warmup_fraction": 1.0}, r"warmup_fraction must be in \[0, 1\)"),
        ],
        ids=["negative-drain", "negative-warmup", "warmup-one"],
    )
    def test_invalid_run_window_rejected(self, window, message):
        """A negative drain ends the run early and a warmup outside [0, 1)
        skews or empties the measurement window; both must fail loudly with
        ExperimentSpec's messages, whether the run comes from execute_run or
        straight from Deployment.run."""
        with pytest.raises(ConfigurationError, match=message):
            execute_run("OX", offered_load=200.0, duration=2.0, **window)
        config, driver, initial_state = prepare_driver(
            "accounting", SystemConfig(), WorkloadConfig(), 200.0, 2.0
        )
        with pytest.raises(ConfigurationError, match=message):
            make_deployment("OX", config).run(
                driver=driver, initial_state=initial_state, **window
            )
        spec_window = {"duration": 2.0, "drain": 1.0, "warmup_fraction": 0.2, **window}
        with pytest.raises(ConfigurationError, match=message):
            tiny_spec(**spec_window)
