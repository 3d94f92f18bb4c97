"""Simulated time accounting shared by every hardware component.

The GhostDB demo reports execution times in seconds of *device* time
(Figure 6).  Real wall-clock time of this Python process is meaningless for
that purpose, so each hardware component charges the simulated cost of its
operations into a single :class:`SimClock`.  The clock keeps a per-category
breakdown (flash reads vs writes vs erases, USB transfer, CPU) which the
benchmarks report alongside the total.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Canonical charge categories.  Components may only charge these, so the
#: breakdown is stable across the whole code base.
CATEGORIES = (
    "flash_read",
    "flash_write",
    "flash_erase",
    "usb",
    "cpu",
)


@dataclass
class TimeBreakdown:
    """Immutable snapshot of a clock's per-category totals, in seconds."""

    flash_read: float = 0.0
    flash_write: float = 0.0
    flash_erase: float = 0.0
    usb: float = 0.0
    cpu: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.flash_read
            + self.flash_write
            + self.flash_erase
            + self.usb
            + self.cpu
        )

    def __sub__(self, other: "TimeBreakdown") -> "TimeBreakdown":
        return TimeBreakdown(
            flash_read=self.flash_read - other.flash_read,
            flash_write=self.flash_write - other.flash_write,
            flash_erase=self.flash_erase - other.flash_erase,
            usb=self.usb - other.usb,
            cpu=self.cpu - other.cpu,
        )

    def __add__(self, other: "TimeBreakdown") -> "TimeBreakdown":
        return TimeBreakdown(
            flash_read=self.flash_read + other.flash_read,
            flash_write=self.flash_write + other.flash_write,
            flash_erase=self.flash_erase + other.flash_erase,
            usb=self.usb + other.usb,
            cpu=self.cpu + other.cpu,
        )

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in CATEGORIES}


@dataclass
class SimClock:
    """Accumulates simulated seconds, broken down by charge category."""

    _totals: dict[str, float] = field(
        default_factory=lambda: {name: 0.0 for name in CATEGORIES}
    )
    #: Per-category totals of the session plane this clock charges
    #: as well (see :meth:`feed`).  A device clock feeds the active
    #: session's private clock, so each session accumulates exactly the
    #: charge sequence it would see running alone (starting from zero)
    #: while this clock keeps the global interleaved timeline.  A bare
    #: clock feeds a private account nobody reads.
    _plane: dict[str, float] = field(
        default_factory=lambda: {name: 0.0 for name in CATEGORIES},
        init=False,
        repr=False,
        compare=False,
    )

    def advance(self, seconds: float, category: str) -> None:
        """Charge ``seconds`` of simulated time to ``category``.

        Raises ``ValueError`` for unknown categories or negative charges so
        accounting bugs surface immediately instead of skewing benchmarks.
        """
        if category not in self._totals:
            raise ValueError(f"unknown clock category: {category!r}")
        if seconds < 0:
            raise ValueError(f"negative time charge: {seconds!r}")
        self._totals[category] += seconds
        self._plane[category] += seconds

    def feed(self, clock: "SimClock") -> None:
        """Charge every later advance to ``clock`` too.  Feeds do not
        chain: ``clock``'s own feed is not charged."""
        self._plane = clock._totals

    @property
    def now(self) -> float:
        """Total simulated seconds elapsed."""
        return sum(self._totals.values())

    @property
    def totals(self) -> dict[str, float]:
        """Live per-category totals (read-only by convention).

        The dict object is stable across :meth:`reset`, so hot paths may
        hold a reference instead of re-fetching snapshots.
        """
        return self._totals

    def breakdown(self) -> TimeBreakdown:
        """A snapshot of the per-category totals."""
        return TimeBreakdown(**self._totals)

    def reset(self) -> None:
        for name in self._totals:
            self._totals[name] = 0.0
