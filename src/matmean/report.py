"""Check reports: margins, failures, and their aggregation.

A failure is recorded exactly when an instance's worst normalized margin
dips below -tol; margins are kept (not just booleans) so coefficient
sweeps can watch the slack degenerate.  Contexts may hold the instance's
matrices themselves: only a failing record serializes them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .linalg import HermitianMatrix, PDMatrix
from .matio import matrix_to_dict


@dataclass
class CheckReport:
    check_name: str
    tol: float
    instances_run: int = 0
    min_margin_seen: float = math.inf
    failures: list[dict] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    def record(self, margin: float, context: dict | None = None) -> None:
        """Log one instance's worst normalized margin."""
        self.instances_run += 1
        margin = float(margin)
        if margin < self.min_margin_seen:
            self.min_margin_seen = margin
        if margin < -self.tol:
            context = context or {}
            self.failures.append({
                "seed_offset": context.get("seed_offset"),
                "worst_margin": margin,
                "instance": {key: matrix_to_dict(value) if isinstance(value, (HermitianMatrix, PDMatrix)) else value
                             for key, value in context.items()},
            })

    @property
    def ok(self) -> bool:
        return not self.failures

    def merge(self, other: "CheckReport") -> None:
        """Add another report of the same check.  A numeric diagnostic
        keeps the maximum; any other keeps the value of the report with
        the lower min margin, this one on a tie."""
        if other.check_name != self.check_name:
            raise ValueError(f"cannot merge {other.check_name!r} into {self.check_name!r}")
        other_is_worse = other.min_margin_seen < self.min_margin_seen
        self.instances_run += other.instances_run
        self.min_margin_seen = min(self.min_margin_seen, other.min_margin_seen)
        self.failures.extend(other.failures)
        for key, value in other.diagnostics.items():
            if key not in self.diagnostics:
                self.diagnostics[key] = value
            elif isinstance(value, (int, float)) and isinstance(self.diagnostics[key], (int, float)):
                self.diagnostics[key] = max(self.diagnostics[key], value)
            elif other_is_worse:
                self.diagnostics[key] = value

    def to_dict(self) -> dict:
        out = {
            "name": self.check_name,
            "instances": self.instances_run,
            "min_margin": None if math.isinf(self.min_margin_seen) else self.min_margin_seen,
            "failures": sorted(
                self.failures,
                key=lambda f: (f["seed_offset"] is None, f["seed_offset"] if isinstance(f["seed_offset"], int) else 0),
            ),
        }
        if self.diagnostics:
            out["diagnostics"] = self.diagnostics
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)
