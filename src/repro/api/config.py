"""The typed, serializable analysis configuration.

:class:`AnalysisConfig` is the single place every knob of the analysis
pipeline lives.  It is

* **frozen** — a config is a value, safe to share between threads, cache
  keys, and worker processes;
* **validated** — every field is checked at construction time, so a typo
  like ``cex_oracle="smtt"`` fails immediately with a :class:`ConfigError`
  instead of deep inside the synthesis loop;
* **exactly JSON round-trippable** — ``from_dict(json.loads(json.dumps(
  cfg.to_dict()))) == cfg`` holds field for field, which is what lets a
  config travel through the crash-isolated parallel engine, CI artifacts,
  and the ``repro`` command line unchanged.

Non-serializable inputs (externally supplied invariants or cut-sets) are
deliberately *not* part of the config; they are advanced overrides passed
directly to :class:`repro.api.pipeline.Analysis`.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Optional

from repro.synthesis.oracles import ORACLE_NAMES

#: Valid values of :attr:`AnalysisConfig.cex_oracle`.
CEX_ORACLES = tuple(ORACLE_NAMES)

#: Valid values of :attr:`AnalysisConfig.cex_strategy`.
CEX_STRATEGIES = ("extremal", "arbitrary")

#: Valid values of :attr:`AnalysisConfig.nonterm`.
NONTERM_MODES = ("off", "auto", "only")


def _one_of(*values):
    return "one of " + ", ".join(values), lambda value: value in values


#: Removed fields, each with a description and a test of the values it
#: could hold without changing the analysis: :meth:`AnalysisConfig.
#: from_dict` drops such a key when its value passes, so configs and
#: requests serialised before the removal still load.  ``cex_batch`` only
#: ever added rows beyond the first, ``oracle_seed`` only seeded the
#: deleted ``sampling`` oracle and ``random`` strategy, ``"local"`` is the
#: only OMT search left, the invariants are always polyhedra restricted
#: to the guarded states, and the recurrence-set search always examines
#: at most 64 candidates (no program of the corpus or the fuzz campaign
#: needs more).
_LEGACY_FIELDS = {
    "kernel": _one_of("auto", "packed", "exact"),
    "lp_mode": _one_of("incremental", "cold", "audit"),
    "cex_batch": ("1", lambda value: type(value) is int and value == 1),
    "oracle_seed": (
        "a nonnegative int",
        lambda value: type(value) is int and value >= 0,
    ),
    "smt_mode": _one_of("local"),
    "domain": _one_of("polyhedra"),
    "restrict_to_guarded": ("true", lambda value: value is True),
    "nonterm_budget": ("64", lambda value: type(value) is int and value == 64),
}


class ConfigError(ValueError):
    """An :class:`AnalysisConfig` field failed validation."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True)
class AnalysisConfig:
    """Every knob of the termination analysis, as one immutable value."""

    #: Let the certificate check tighten strict inequalities over
    #: integer-valued variables.  Synthesis is rational either way.
    integer_mode: bool = False
    #: Iteration budget of one monodimensional synthesis loop.
    max_iterations: int = 200
    #: Cap on the lexicographic dimension (``None``: the stacked dimension).
    max_dimension: Optional[int] = None
    #: Independently re-check the synthesised ranking function.
    check_certificates: bool = True
    #: Counterexample oracle of the CEGIS engine: ``"smt"`` (the paper's
    #: optimising extremal-point query) or ``"dd"`` (double-description
    #: vertex/ray enumeration).
    cex_oracle: str = "smt"
    #: Which counterexample the oracle returns: ``"extremal"`` (the
    #: paper's choice, the most violating one) or ``"arbitrary"`` (first
    #: found, no optimisation) — the §4.2 ablation axis.
    cex_strategy: str = "extremal"
    #: Nontermination analysis: ``"off"`` (termination only — the
    #: historical behaviour), ``"auto"`` (termination synthesis, then
    #: recurrence-set synthesis when termination is not proved) or
    #: ``"only"`` (recurrence-set synthesis alone).  Only provers
    #: advertising the ``"nontermination"`` capability honour it.
    nonterm: str = "off"

    def __post_init__(self) -> None:
        _require(
            isinstance(self.integer_mode, bool),
            "integer_mode must be a bool, got %r" % (self.integer_mode,),
        )
        _require(
            isinstance(self.max_iterations, int)
            and not isinstance(self.max_iterations, bool)
            and self.max_iterations >= 1,
            "max_iterations must be a positive int, got %r" % (self.max_iterations,),
        )
        _require(
            self.max_dimension is None
            or (
                isinstance(self.max_dimension, int)
                and not isinstance(self.max_dimension, bool)
                and self.max_dimension >= 1
            ),
            "max_dimension must be None or a positive int, got %r"
            % (self.max_dimension,),
        )
        _require(
            isinstance(self.check_certificates, bool),
            "check_certificates must be a bool, got %r" % (self.check_certificates,),
        )
        _require(
            self.cex_oracle in CEX_ORACLES,
            "cex_oracle must be one of %s, got %r"
            % (", ".join(CEX_ORACLES), self.cex_oracle),
        )
        _require(
            self.cex_strategy in CEX_STRATEGIES,
            "cex_strategy must be one of %s, got %r"
            % (", ".join(CEX_STRATEGIES), self.cex_strategy),
        )
        _require(
            self.nonterm in NONTERM_MODES,
            "nonterm must be one of %s, got %r"
            % (", ".join(NONTERM_MODES), self.nonterm),
        )

    # -- derived views -----------------------------------------------------------

    def replace(self, **changes) -> "AnalysisConfig":
        """A copy with *changes* applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    # -- serialisation -----------------------------------------------------------

    def to_dict(self) -> dict:
        """A plain-JSON dictionary; inverse of :meth:`from_dict`."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "AnalysisConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys are rejected (a config written by a newer version
        must not be silently misread), missing keys take their defaults.
        The key of a removed field is dropped when its value passes that
        field's test (:data:`_LEGACY_FIELDS`) and rejected otherwise.
        """
        if not isinstance(data, dict):
            raise ConfigError("config must be a dict, got %r" % type(data).__name__)
        legacy_keys = [key for key in _LEGACY_FIELDS if key in data]
        if legacy_keys:
            data = dict(data)
            for key in legacy_keys:
                expected, accepts = _LEGACY_FIELDS[key]
                legacy = data.pop(key)
                _require(
                    accepts(legacy),
                    "%s (removed) must be %s, got %r" % (key, expected, legacy),
                )
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError("unknown config keys: %s" % ", ".join(unknown))
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "AnalysisConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigError("invalid config JSON: %s" % error) from None
        return cls.from_dict(data)
