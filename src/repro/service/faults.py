"""Deterministic fault injection for the analysis service.

The service's robustness claims — every request answered, zero unsound
results served, respawn budgets never exceeded — are only claims until
something actually goes wrong.  This module makes things go wrong *on
purpose and reproducibly*: a :class:`FaultPlan` names the failure modes
to inject and their per-event probabilities, and a :class:`FaultInjector`
turns the plan plus a seed into a deterministic schedule of injections
(one seeded PRNG consulted under a lock, so the decision sequence is a
pure function of the plan for a serialised event order).

Failure modes
-------------

``kill_worker``
    The leased pool worker ``os._exit``\\ s mid-request — exercises crash
    detection, respawn and the respawn budget.
``delay_worker``
    The worker sleeps ``delay_seconds`` before computing — exercises the
    per-request timeout and the hung-worker watchdog.
``corrupt_cache`` / ``truncate_cache``
    The just-written disk cache file is overwritten with garbage /
    truncated mid-document — exercises the load-path integrity checks
    (``disk_drops``) and the checker gate.
``drop_connection``
    The TCP response is cut off mid-line (half the payload, no newline,
    then RST-ish close) — exercises client retry and server framing.

The plan rides into ``repro serve`` through the hidden ``--fault-plan``
flag (specs like ``seed0``, ``seed7:kill=0.2,delay=0.1``, or ``off``)
and is threaded into the pool executor (worker faults), the result cache
(disk faults) and the connection loop (transport faults).  Production
deployments simply never pass the flag: the default plan is inert and
injects nothing.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, replace
from typing import Optional

#: Probabilities used by the ``seedN`` presets (the chaos suite's mix).
_PRESET_RATES = {
    "kill_worker": 0.15,
    "delay_worker": 0.10,
    "corrupt_cache": 0.25,
    "truncate_cache": 0.15,
    "drop_connection": 0.15,
}

#: Spec aliases accepted on the command line.
_FIELD_ALIASES = {
    "kill": "kill_worker",
    "kill_worker": "kill_worker",
    "delay": "delay_worker",
    "delay_worker": "delay_worker",
    "corrupt": "corrupt_cache",
    "corrupt_cache": "corrupt_cache",
    "truncate": "truncate_cache",
    "truncate_cache": "truncate_cache",
    "drop": "drop_connection",
    "drop_connection": "drop_connection",
}


class FaultPlanError(ValueError):
    """The ``--fault-plan`` spec cannot be parsed."""


@dataclass(frozen=True)
class FaultPlan:
    """Which faults to inject, at what rate, from which seed."""

    seed: int = 0
    kill_worker: float = 0.0
    delay_worker: float = 0.0
    corrupt_cache: float = 0.0
    truncate_cache: float = 0.0
    drop_connection: float = 0.0
    #: How long a delayed worker sleeps; meaningful past the deadline.
    delay_seconds: float = 2.0

    def __post_init__(self) -> None:
        for name in _PRESET_RATES:
            rate = getattr(self, name)
            if not (isinstance(rate, (int, float)) and 0.0 <= rate <= 1.0):
                raise FaultPlanError(
                    "%s must be a probability in [0, 1], got %r" % (name, rate)
                )
        if not (
            isinstance(self.delay_seconds, (int, float))
            and self.delay_seconds >= 0
        ):
            raise FaultPlanError(
                "delay_seconds must be non-negative, got %r"
                % (self.delay_seconds,)
            )

    @property
    def inert(self) -> bool:
        return all(getattr(self, name) == 0.0 for name in _PRESET_RATES)

    def describe(self) -> str:
        active = [
            "%s=%g" % (name, getattr(self, name))
            for name in sorted(_PRESET_RATES)
            if getattr(self, name) > 0
        ]
        return "seed%d:%s" % (self.seed, ",".join(active) or "off")

    @classmethod
    def parse(cls, spec: Optional[str]) -> "FaultPlan":
        """Build a plan from a ``--fault-plan`` spec.

        ``None``/``"off"`` → the inert plan.  ``seedN`` → the preset
        chaos mix under seed N.  ``seedN:kill=0.2,delay=0.1[,...]`` →
        only the named faults, at the given rates (aliases above;
        ``delay_seconds=S`` tunes the sleep).
        """
        if spec is None or spec.strip().lower() in ("", "off", "none"):
            return cls()
        text = spec.strip().lower()
        head, _, tail = text.partition(":")
        if not head.startswith("seed"):
            raise FaultPlanError(
                "fault plan must start with 'seedN', got %r" % spec
            )
        try:
            seed = int(head[len("seed"):])
        except ValueError:
            raise FaultPlanError("bad fault-plan seed in %r" % spec) from None
        if not tail:
            return cls(seed=seed, **_PRESET_RATES)
        plan = cls(seed=seed)
        for part in tail.split(","):
            if not part:
                continue
            key, eq, value = part.partition("=")
            if not eq:
                raise FaultPlanError(
                    "fault-plan entries are key=value, got %r" % part
                )
            if key == "delay_seconds":
                field_name = "delay_seconds"
            else:
                field_name = _FIELD_ALIASES.get(key)
                if field_name is None:
                    raise FaultPlanError(
                        "unknown fault %r (have: %s)"
                        % (key, ", ".join(sorted(set(_FIELD_ALIASES))))
                    )
            try:
                rate = float(value)
            except ValueError:
                raise FaultPlanError(
                    "bad value for %s in %r" % (key, part)
                ) from None
            plan = replace(plan, **{field_name: rate})
        return plan


@dataclass
class FaultLog:
    """Injection counters (what the chaos suite asserts against)."""

    kill_worker: int = 0
    delay_worker: int = 0
    corrupt_cache: int = 0
    truncate_cache: int = 0
    drop_connection: int = 0

    def to_dict(self) -> dict:
        return {
            "kill_worker": self.kill_worker,
            "delay_worker": self.delay_worker,
            "corrupt_cache": self.corrupt_cache,
            "truncate_cache": self.truncate_cache,
            "drop_connection": self.drop_connection,
        }

    @property
    def total(self) -> int:
        return sum(self.to_dict().values())


class FaultInjector:
    """The seeded schedule: one PRNG, consulted under a lock.

    ``decide(name)`` draws once and reports whether to inject *name*
    this time, bumping the log when it fires.  The inert injector (the
    default plan) never draws, so production paths stay byte-identical.
    """

    def __init__(self, plan: Optional[FaultPlan] = None):
        self.plan = plan if plan is not None else FaultPlan()
        self._random = random.Random(self.plan.seed)
        self._lock = threading.Lock()
        self.log = FaultLog()

    @property
    def active(self) -> bool:
        return not self.plan.inert

    def decide(self, name: str) -> bool:
        rate = getattr(self.plan, name)
        if rate <= 0.0:
            return False
        with self._lock:
            fired = self._random.random() < rate
            if fired:
                setattr(self.log, name, getattr(self.log, name) + 1)
        return fired

    # -- the worker-side markers -------------------------------------------------

    def annotate_worker_message(self, document: dict) -> dict:
        """Stamp worker-side faults into the request document.

        The pool worker honours ``__fault__`` before parsing the request
        (see ``repro.service.server._analyze_request_document``): a
        ``kill`` marker makes it ``os._exit`` mid-request, a ``delay``
        marker makes it sleep past the deadline first.
        """
        if self.decide("kill_worker"):
            return dict(document, __fault__="kill")
        if self.decide("delay_worker"):
            return dict(
                document,
                __fault__="delay",
                __fault_delay__=self.plan.delay_seconds,
            )
        return document


#: Shared inert injector: ``decide`` is always False, nothing ever logs.
INERT_INJECTOR = FaultInjector(FaultPlan())
