"""Oracle/strategy selection round-trips: AnalysisConfig JSON and the CLI."""

import itertools
import json

import pytest

from repro.api import (
    AnalysisConfig,
    CEX_ORACLES,
    CEX_STRATEGIES,
    ConfigError,
    available_provers,
    prover_capabilities,
)
from repro.cli import _config_from_arguments, build_parser

ALL_COMBOS = list(itertools.product(CEX_ORACLES, CEX_STRATEGIES))


class TestConfigValidation:
    def test_defaults_replay_the_paper(self):
        config = AnalysisConfig()
        assert config.cex_oracle == "smt"
        assert config.cex_strategy == "extremal"

    def test_unknown_oracle_rejected(self):
        with pytest.raises(ConfigError, match="cex_oracle"):
            AnalysisConfig(cex_oracle="crystal-ball")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError, match="cex_strategy"):
            AnalysisConfig(cex_strategy="greedy")

    def test_removed_knobs_are_gone(self):
        for removed in ("cex_batch", "oracle_seed"):
            with pytest.raises(TypeError):
                AnalysisConfig(**{removed: 1})
            assert removed not in AnalysisConfig().to_dict()
        with pytest.raises(ConfigError, match="cex_oracle"):
            AnalysisConfig(cex_oracle="sampling")


class TestJsonRoundTrip:
    @pytest.mark.parametrize("oracle,strategy", ALL_COMBOS)
    def test_every_combination_round_trips_exactly(self, oracle, strategy):
        config = AnalysisConfig(cex_oracle=oracle, cex_strategy=strategy)
        assert (
            AnalysisConfig.from_dict(json.loads(json.dumps(config.to_dict())))
            == config
        )
        assert AnalysisConfig.from_json(config.to_json()) == config


class TestCliRoundTrip:
    @pytest.mark.parametrize("oracle,strategy", ALL_COMBOS)
    def test_prove_flags_reach_the_config(self, oracle, strategy):
        parser = build_parser()
        arguments = parser.parse_args(
            [
                "prove",
                "program.imp",
                "--oracle",
                oracle,
                "--cex-strategy",
                strategy,
            ]
        )
        config = _config_from_arguments(arguments)
        assert config.cex_oracle == oracle
        assert config.cex_strategy == strategy

    def test_config_file_baseline_with_flag_override(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(
            AnalysisConfig(cex_oracle="dd", cex_strategy="extremal").to_json()
        )
        parser = build_parser()
        arguments = parser.parse_args(
            ["prove", "p.imp", "--config", str(path), "--cex-strategy", "arbitrary"]
        )
        config = _config_from_arguments(arguments)
        assert config.cex_oracle == "dd"  # from the file
        assert config.cex_strategy == "arbitrary"  # the flag wins

    def test_invalid_choice_rejected_by_argparse(self, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["prove", "p.imp", "--oracle", "magic"])
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--cex-batch", "--oracle-seed"])
    def test_removed_flags_rejected(self, flag, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["prove", "p.imp", flag, "1"])
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCapabilityFlags:
    def test_termite_advertises_swappable_oracles(self):
        capabilities = prover_capabilities()
        assert "cex-oracles" in capabilities["termite"]
        assert "cex-strategies" in capabilities["termite"]
        assert "events" in capabilities["termite"]

    def test_capability_filter(self):
        assert available_provers("cex-oracles") == ["termite"]
        everyone = available_provers("certificates")
        assert set(everyone) == set(available_provers())

    def test_unknown_capability_rejected(self):
        with pytest.raises(KeyError, match="unknown capability"):
            available_provers("telepathy")

    def test_baselines_ignore_but_do_not_advertise(self):
        capabilities = prover_capabilities()
        for name in available_provers():
            if name == "termite":
                continue
            assert "cex-oracles" not in capabilities[name]


class TestPipelineEngineObservers:
    def test_engine_events_flow_through_analysis(self):
        from repro.api import Analysis

        source = "var x; while (x > 0) { x = x - 1; }"
        events = []
        analysis = Analysis(source, name="countdown")
        analysis.add_engine_observer(events.append)
        result = analysis.run("termite")
        assert result.proved
        kinds = {event.kind for event in events}
        assert {"component_start", "iteration", "component_end"} <= kinds

    def test_no_events_without_capability(self):
        from repro.api import Analysis

        source = "var x; while (x > 0) { x = x - 1; }"
        events = []
        analysis = Analysis(source, name="countdown")
        analysis.add_engine_observer(events.append)
        analysis.run("heuristic")
        assert events == []


class TestRemovedAliases:
    """The PR-5 deprecation shims are gone; repro.synthesis is the one path."""

    def test_core_avoid_space_alias_removed(self):
        # The whole repro.core.monodim shim is gone, not just the alias.
        import importlib

        import repro.core

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.monodim")
        assert not hasattr(repro.core, "avoid_space")
        # AvoidSpace is built per block, by the block's map.
        import repro.synthesis.oracles as oracles
        from repro.core.problem import BlockMap

        assert not hasattr(oracles, "avoid_space")
        assert callable(BlockMap.avoid_space)

    def test_eager_generator_aliases_removed(self):
        import repro.baselines.eager_generators as eager

        for alias in ("_difference_map", "_one_offsets", "_disjunct_generators"):
            assert not hasattr(eager, alias)
        # The u-image of a disjunct is its block's map.
        import repro.synthesis.oracles as oracles
        from repro.synthesis.oracles import disjunct_generators  # noqa: F401

        for moved in ("difference_map", "one_offsets", "constraint_in_state_space"):
            assert not hasattr(oracles, moved)
