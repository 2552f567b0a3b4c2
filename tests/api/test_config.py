"""AnalysisConfig: validation, immutability, and exact JSON round-trips."""

import dataclasses
import json

import pytest

from repro.api import AnalysisConfig, ConfigError


class TestValidation:
    def test_defaults_are_valid(self):
        config = AnalysisConfig()
        assert config.cex_oracle == "smt"
        assert config.cex_strategy == "extremal"
        assert config.check_certificates

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cex_strategy": "greedy"},
            {"cex_oracle": "warm"},
            {"max_iterations": 0},
            {"max_iterations": -3},
            {"max_iterations": "many"},
            {"max_iterations": True},
            {"max_dimension": 0},
            {"integer_mode": "yes"},
            {"check_certificates": 1},
            {"max_dimension": True},
            {"integer_mode": 0},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            AnalysisConfig(**kwargs)

    def test_config_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            AnalysisConfig(cex_oracle="warm")

    def test_frozen(self):
        config = AnalysisConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.cex_oracle = "dd"

    def test_replace_revalidates(self):
        config = AnalysisConfig()
        assert config.replace(cex_oracle="dd").cex_oracle == "dd"
        with pytest.raises(ConfigError):
            config.replace(cex_oracle="warm")

    def test_smt_mode_keyword_rejected(self):
        """``smt_mode`` was removed: only the local OMT search is left."""
        with pytest.raises(TypeError):
            AnalysisConfig(smt_mode="local")


class TestSerialisation:
    def test_round_trip_is_exact(self):
        config = AnalysisConfig(
            cex_oracle="dd",
            integer_mode=True,
            max_iterations=33,
            max_dimension=2,
            check_certificates=False,
        )
        assert AnalysisConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config
        assert AnalysisConfig.from_json(config.to_json()) == config

    def test_default_round_trip(self):
        config = AnalysisConfig()
        assert AnalysisConfig.from_json(config.to_json()) == config

    def test_missing_keys_take_defaults(self):
        assert AnalysisConfig.from_dict({"cex_oracle": "dd"}) == AnalysisConfig(
            cex_oracle="dd"
        )

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys: turbo"):
            AnalysisConfig.from_dict({"turbo": True})

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigError):
            AnalysisConfig.from_json("{not json")

    def test_non_dict_rejected(self):
        with pytest.raises(ConfigError):
            AnalysisConfig.from_dict(["cex_oracle"])

    @pytest.mark.parametrize("legacy", ["auto", "packed", "exact"])
    def test_legacy_kernel_key_is_dropped(self, legacy):
        data = {"kernel": legacy, "cex_oracle": "dd"}
        assert AnalysisConfig.from_dict(data) == AnalysisConfig(cex_oracle="dd")
        assert data == {"kernel": legacy, "cex_oracle": "dd"}  # not mutated
        assert "kernel" not in AnalysisConfig.from_dict(data).to_dict()

    @pytest.mark.parametrize("legacy", ["fast", "", None, 1])
    def test_legacy_kernel_key_with_another_value_rejected(self, legacy):
        with pytest.raises(ConfigError, match="kernel"):
            AnalysisConfig.from_dict({"kernel": legacy})

    @pytest.mark.parametrize("legacy", ["incremental", "cold", "audit"])
    def test_legacy_lp_mode_key_is_dropped(self, legacy):
        data = {"lp_mode": legacy, "kernel": "exact", "cex_oracle": "dd"}
        assert AnalysisConfig.from_dict(data) == AnalysisConfig(cex_oracle="dd")
        assert data["lp_mode"] == legacy  # not mutated
        assert "lp_mode" not in AnalysisConfig.from_dict(data).to_dict()

    @pytest.mark.parametrize("legacy", ["warm", "", None, 1])
    def test_legacy_lp_mode_key_with_another_value_rejected(self, legacy):
        with pytest.raises(ConfigError, match="lp_mode"):
            AnalysisConfig.from_dict({"lp_mode": legacy})

    @pytest.mark.parametrize(
        "key,legacy", [("cex_batch", 1), ("oracle_seed", 0), ("oracle_seed", 7)]
    )
    def test_legacy_cegis_key_is_dropped(self, key, legacy):
        data = {key: legacy, "cex_strategy": "arbitrary"}
        config = AnalysisConfig.from_dict(data)
        assert config == AnalysisConfig(cex_strategy="arbitrary")
        assert data[key] == legacy  # not mutated
        assert key not in config.to_dict()

    @pytest.mark.parametrize(
        "key,legacy",
        [
            ("cex_batch", 4),
            ("cex_batch", True),
            ("cex_batch", "1"),
            ("oracle_seed", -1),
            ("oracle_seed", False),
            ("oracle_seed", None),
        ],
    )
    def test_legacy_cegis_key_with_another_value_rejected(self, key, legacy):
        with pytest.raises(ConfigError, match=key):
            AnalysisConfig.from_dict({key: legacy})

    def test_legacy_smt_mode_key_is_dropped(self):
        data = {"smt_mode": "local"}
        assert AnalysisConfig.from_dict(data) == AnalysisConfig()
        assert data == {"smt_mode": "local"}  # not mutated
        assert "smt_mode" not in AnalysisConfig.from_dict(data).to_dict()

    @pytest.mark.parametrize("legacy", ["global", "", None])
    def test_legacy_smt_mode_key_with_another_value_rejected(self, legacy):
        with pytest.raises(ConfigError, match="smt_mode"):
            AnalysisConfig.from_dict({"smt_mode": legacy})

    def test_removed_field_is_no_constructor_argument(self):
        with pytest.raises(TypeError):
            AnalysisConfig(lp_mode="incremental")
        assert "lp_mode" not in AnalysisConfig().to_dict()

    def test_config_has_seven_fields(self):
        assert len(dataclasses.fields(AnalysisConfig)) == 7

    def test_legacy_nonterm_budget_key_is_dropped(self):
        data = {"nonterm_budget": 64, "nonterm": "auto"}
        assert AnalysisConfig.from_dict(data) == AnalysisConfig(nonterm="auto")
        assert data == {"nonterm_budget": 64, "nonterm": "auto"}
        assert "nonterm_budget" not in AnalysisConfig().to_dict()
        with pytest.raises(TypeError):
            AnalysisConfig(nonterm_budget=64)

    def test_legacy_nonterm_budget_with_another_value_rejected(self):
        with pytest.raises(ConfigError, match="nonterm_budget"):
            AnalysisConfig.from_dict({"nonterm_budget": 7})

    def test_legacy_invariant_keys_are_dropped(self):
        data = {"domain": "polyhedra", "restrict_to_guarded": True}
        assert AnalysisConfig.from_dict(data) == AnalysisConfig()
        assert data == {"domain": "polyhedra", "restrict_to_guarded": True}
        assert "domain" not in AnalysisConfig().to_dict()
        assert "restrict_to_guarded" not in AnalysisConfig().to_dict()

    @pytest.mark.parametrize(
        "key,legacy",
        [
            ("domain", "intervals"),
            ("domain", None),
            ("restrict_to_guarded", False),
            ("restrict_to_guarded", 1),
            ("restrict_to_guarded", None),
        ],
    )
    def test_legacy_invariant_key_with_another_value_rejected(self, key, legacy):
        with pytest.raises(ConfigError, match=key):
            AnalysisConfig.from_dict({key: legacy})

    @pytest.mark.parametrize(
        "key,value", [("domain", "polyhedra"), ("restrict_to_guarded", True)]
    )
    def test_invariant_keywords_rejected(self, key, value):
        with pytest.raises(TypeError):
            AnalysisConfig(**{key: value})
