"""Shared result type for all recognizers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graph import WeightedGraph


@dataclass
class Realization:
    """Outcome of a recognizer: a realizing graph or a rejection reason.

    ``witness`` optionally carries extra certifying structure (e.g. a
    Kuratowski subdivision witness on planarity rejection).
    """

    accepted: bool
    graph: Optional[WeightedGraph] = None
    reason: Optional[str] = None
    witness: object = None

    @classmethod
    def ok(cls, graph: WeightedGraph) -> "Realization":
        return cls(True, graph=graph)

    @classmethod
    def rejected(cls, reason: str, witness: object = None) -> "Realization":
        return cls(False, reason=reason, witness=witness)

    def __bool__(self) -> bool:
        return self.accepted
