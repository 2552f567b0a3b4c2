"""Common result type for the baseline provers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.ranking import LexicographicRankingFunction


@dataclass
class BaselineResult:
    """Outcome of a baseline termination prover."""

    name: str
    proved: bool
    ranking: Optional[LexicographicRankingFunction] = None
    time_seconds: float = 0.0
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def status(self) -> str:
        return "terminating" if self.proved else "unknown"

    def __repr__(self) -> str:
        return "BaselineResult(%s, %s, %.1f ms)" % (
            self.name,
            self.status,
            self.time_seconds * 1000.0,
        )
