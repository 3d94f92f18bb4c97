"""Secure-chip CPU cost model.

The device's 32-bit RISC processor is slow (tens of MHz) compared to the
terminal's CPU, which is one of the reasons GhostDB "delegates as much work
as possible to the PC and the server as long as this processing does not
compromise hidden data" (Section 3).  Operators charge per-tuple CPU work
here so plans that process fewer tuples on-device genuinely run faster.

The per-operation cycle counts are coarse (an interpreted comparison is a
few dozen RISC instructions) but uniform, so *relative* plan costs -- the
thing the paper's Figure 6 game is about -- are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.clock import SimClock
from repro.hardware.profiles import HardwareProfile
from repro.obs.registry import MetricsRegistry

#: Default cycle costs for the primitive per-tuple operations the engine
#: performs.  These feed both execution (charged on the clock) and the
#: optimizer's cost model (estimated), keeping the two consistent.
CYCLES = {
    "compare": 40,  # compare two scalar values
    "hash": 120,  # hash a key (used by Bloom filters and hash join)
    "copy_word": 8,  # move 4 bytes within RAM
    "decode_field": 60,  # decode one field from a flash record
    "merge_step": 50,  # one step of a sorted-list merge
    "bloom_probe": 150,  # k hash probes into a Bloom filter
    "bloom_insert": 150,
}


@dataclass
class CpuStats:
    """Cycle counters per primitive, for per-operator reporting."""

    cycles_by_op: dict[str, int] = field(default_factory=dict)

    @property
    def total_cycles(self) -> int:
        return sum(self.cycles_by_op.values())


@dataclass
class SecureChip:
    """Charges CPU time for device-side per-tuple work."""

    profile: HardwareProfile
    clock: SimClock
    stats: CpuStats = field(default_factory=CpuStats)
    #: Optional device-lifetime metrics sink (monotonic; includes load).
    metrics: MetricsRegistry | None = None
    #: Bound cycle-counter children per primitive (hot path).
    _bound: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.clock.check_profile(self.profile)

    def _cycles(self, op: str, cycles: int) -> None:
        bound = self._bound.get(op)
        if bound is None:
            bound = self.metrics.counter(
                "ghostdb_device_cpu_cycles_total"
            ).labelled(op=op)
            self._bound[op] = bound
        bound.inc(cycles)

    def charge(self, op: str, count: int = 1) -> None:
        """Charge ``count`` occurrences of primitive ``op``.

        The clock counts cycles exactly, so a loop may count its
        primitives locally and charge them once per output window: the
        total is the same as charging each occurrence on its own.
        """
        if count < 0:
            raise ValueError("operation count cannot be negative")
        try:
            cycles = CYCLES[op] * count
        except KeyError:
            raise ValueError(f"unknown CPU primitive: {op!r}") from None
        self.stats.cycles_by_op[op] = (
            self.stats.cycles_by_op.get(op, 0) + cycles
        )
        if self.metrics is not None:
            self._cycles(op, cycles)
        self.clock.advance(cycles, "cpu_cycles")

    def charge_cycles(self, cycles: int) -> None:
        """Charge a raw cycle count (for costs outside the primitive set)."""
        if cycles < 0:
            raise ValueError("cycle count cannot be negative")
        self.stats.cycles_by_op["raw"] = (
            self.stats.cycles_by_op.get("raw", 0) + cycles
        )
        if self.metrics is not None:
            self._cycles("raw", cycles)
        self.clock.advance(cycles, "cpu_cycles")
