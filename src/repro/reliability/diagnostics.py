"""Structured run diagnostics: what the reliability layer observed.

A :class:`RunDiagnostics` rides along on every
:class:`~repro.network.simulator.SimulationResult`. It collects the
two kinds of events the reliability layer can witness during a run:

* **fallbacks** — populations the degrade policy re-seated from the
  compiled fast path onto the verbatim solver path after a numeric
  fault (:class:`FallbackEvent` records where, when, and why);
* **saturation** — per-population fixed-point clip accounting from the
  hardware runtimes (see
  :class:`~repro.fixedpoint.fixed.SaturationStats`).

A run with an empty diagnostics object behaved exactly as the paper's
correctness claims promise; anything recorded here is a quantified
deviation, not a silent one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Tuple

from repro.fixedpoint import SaturationStats

#: How many offending indices a diagnostic record carries at most.
MAX_REPORTED_INDICES = 16


@dataclass(frozen=True)
class FallbackEvent:
    """One mid-run re-seat of a population onto the solver path."""

    #: Population whose compiled runtime went numerically bad.
    population: str
    #: Step index (runtime-local == simulator-global) of the fault.
    step: int
    #: First state variable found bad.
    variable: str
    #: Indices of the offending neurons (truncated to a sane length).
    indices: Tuple[int, ...]
    #: Runtime class names, e.g. ``CompiledRuntime`` -> ``SolverRuntime``.
    from_runtime: str = "CompiledRuntime"
    to_runtime: str = "SolverRuntime"

    def describe(self) -> str:
        return (
            f"step {self.step}: {self.population!r} fell back "
            f"{self.from_runtime} -> {self.to_runtime} "
            f"({self.variable} bad at {list(self.indices)})"
        )


@dataclass
class RunDiagnostics:
    """Reliability events accumulated over one simulator's lifetime."""

    #: Solver fallbacks, in the order they happened.
    fallbacks: List[FallbackEvent] = field(default_factory=list)
    #: Fixed-point saturation accounting, keyed by population.
    saturation: Dict[str, SaturationStats] = field(default_factory=dict)

    @property
    def total_saturations(self) -> int:
        """Clipped elements across every population and format."""
        return sum(stats.total_clipped for stats in self.saturation.values())

    def healthy(self) -> bool:
        """True when nothing fell back and nothing clipped."""
        return not self.fallbacks and self.total_saturations == 0

    def to_dict(self) -> dict:
        """A JSON-serialisable view (``repro run --stats-json``)."""
        return {
            "healthy": self.healthy(),
            "total_saturations": self.total_saturations,
            "fallbacks": [
                {**asdict(event), "indices": list(event.indices)}
                for event in self.fallbacks
            ],
            "saturation": {
                population: {
                    "checked": stats.checked,
                    "total_clipped": stats.total_clipped,
                    "clipped_by_format": {
                        fmt.describe(): count
                        for fmt, count in sorted(
                            stats.clipped.items(),
                            key=lambda item: item[0].describe(),
                        )
                    },
                }
                for population, stats in sorted(self.saturation.items())
            },
        }

    def summary(self) -> str:
        """Human-readable digest (empty string when healthy)."""
        lines: List[str] = []
        for event in self.fallbacks:
            lines.append(event.describe())
        for population, stats in sorted(self.saturation.items()):
            if stats.total_clipped:
                lines.append(f"{population!r} saturation: {stats.describe()}")
        return "\n".join(lines)
