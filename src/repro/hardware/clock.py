"""Simulated time accounting shared by every hardware component.

The GhostDB demo reports execution times in seconds of *device* time
(Figure 6).  Real wall-clock time of this Python process is meaningless for
that purpose, so each hardware component charges the simulated cost of its
operations into a single :class:`SimClock`.

The clock counts exact integers in each operation's native unit -- CPU
cycles, page reads, page programs, block erases, USB messages and bits --
and converts to seconds only when read, with the profile's constants.  A
total is therefore a function of *how many* operations ran, never of the
order their charges arrived in: charging one window's primitives at once
reads exactly like charging them one by one.  The per-category breakdown
(flash reads vs writes vs erases, USB transfer, CPU) that the benchmarks
report alongside the total comes from the same conversion.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.profiles import DEMO_DEVICE, HardwareProfile

#: Canonical charge categories.  Every unit charges exactly one of them,
#: so the breakdown is stable across the whole code base.
CATEGORIES = (
    "flash_read",
    "flash_write",
    "flash_erase",
    "usb",
    "cpu",
)

#: Integer stall units per second.  Arbitrary-duration stalls (a USB
#: fault stall, the link's retry backoff, FTL throttling) are rare and
#: not a count of any operation, so they are kept in whole picoseconds.
PICOSECONDS = 10**12

#: Every unit the clock counts, and the category it is charged to.  Each
#: category also has a ``<category>_stall_ps`` unit (see :meth:`SimClock.stall`).
UNITS = {
    "page_reads_partial": "flash_read",
    "page_reads_full": "flash_read",
    "page_programs": "flash_write",
    "block_erases": "flash_erase",
    "usb_messages": "usb",
    "usb_bits": "usb",
    "cpu_cycles": "cpu",
    **{f"{category}_stall_ps": category for category in CATEGORIES},
}

#: The profile constants the conversion reads.
TIMING_FIELDS = (
    "flash_read_partial_s",
    "flash_read_full_s",
    "flash_write_s",
    "flash_erase_s",
    "usb_setup_s",
    "usb_bits_per_s",
    "cpu_hz",
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


class SimClock:
    """Exact per-unit operation counts, read as simulated seconds."""

    def __init__(self, profile: HardwareProfile = DEMO_DEVICE):
        #: The constants that turn counts into seconds.
        self.profile = profile
        #: Integer count per unit since the last :meth:`reset`.  The dict
        #: object is stable, so hot paths may bump it directly (together
        #: with :attr:`plane`) instead of calling :meth:`advance`.
        self.ticks: dict[str, int] = dict.fromkeys(UNITS, 0)
        #: The counts of the session plane this clock charges as well
        #: (see :meth:`feed`).  A device clock feeds the active session's
        #: private clock, so each session accumulates exactly the charges
        #: it would see running alone (starting from zero) while this
        #: clock keeps the global interleaved timeline.  A bare clock
        #: feeds a private account nobody reads.
        self.plane: dict[str, int] = dict.fromkeys(UNITS, 0)

    def check_profile(self, profile: HardwareProfile) -> None:
        """Refuse a component whose timing constants differ from the
        ones this clock converts with."""
        for name in TIMING_FIELDS:
            if getattr(profile, name) != getattr(self.profile, name):
                raise ValueError(
                    f"profile {profile.name!r} disagrees with the clock's "
                    f"{self.profile.name!r} on {name}"
                )

    def advance(self, count: int, unit: str) -> None:
        """Charge ``count`` operations of ``unit``.

        Raises ``ValueError`` for unknown units or negative counts, and
        ``TypeError`` for a non-integer count, so accounting bugs surface
        immediately instead of skewing benchmarks.
        """
        if unit not in self.ticks:
            raise ValueError(f"unknown clock unit: {unit!r}")
        if not isinstance(count, int):
            raise TypeError(f"clock counts are integers, not {count!r}")
        if count < 0:
            raise ValueError(f"negative clock charge: {count!r}")
        self.ticks[unit] += count
        self.plane[unit] += count

    def stall(self, seconds: float, category: str) -> None:
        """Charge an arbitrary duration to ``category``, rounded to
        whole picoseconds."""
        if category not in CATEGORIES:
            raise ValueError(f"unknown clock category: {category!r}")
        if seconds < 0:
            raise ValueError(f"negative clock charge: {seconds!r}")
        self.advance(round(seconds * PICOSECONDS), f"{category}_stall_ps")

    def feed(self, clock: "SimClock") -> None:
        """Charge every later advance to ``clock`` too.  Feeds do not
        chain: ``clock``'s own feed is not charged."""
        self.plane = clock.ticks

    def breakdown(self) -> TimeBreakdown:
        """The per-category totals in seconds: one fixed conversion of
        the current counts."""
        t = self.ticks
        p = self.profile
        return TimeBreakdown(
            flash_read=(
                t["page_reads_partial"] * p.flash_read_partial_s
                + t["page_reads_full"] * p.flash_read_full_s
                + t["flash_read_stall_ps"] / PICOSECONDS
            ),
            flash_write=(
                t["page_programs"] * p.flash_write_s
                + t["flash_write_stall_ps"] / PICOSECONDS
            ),
            flash_erase=(
                t["block_erases"] * p.flash_erase_s
                + t["flash_erase_stall_ps"] / PICOSECONDS
            ),
            usb=(
                t["usb_messages"] * p.usb_setup_s
                + t["usb_bits"] / p.usb_bits_per_s
                + t["usb_stall_ps"] / PICOSECONDS
            ),
            cpu=t["cpu_cycles"] / p.cpu_hz + t["cpu_stall_ps"] / PICOSECONDS,
        )

    @property
    def now(self) -> float:
        """Total simulated seconds elapsed."""
        return self.breakdown().total

    def reset(self) -> None:
        for unit in self.ticks:
            self.ticks[unit] = 0
