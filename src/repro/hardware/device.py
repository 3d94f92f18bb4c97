"""The assembled smart USB device (Figure 2 of the paper).

A :class:`SmartUsbDevice` wires together one clock, the RAM budget, the
NAND flash behind its FTL, the secure chip's CPU model, and the USB channel
to the untrusted host.  Everything the hidden side of GhostDB does --
storage, indexing, query execution -- happens through this object, so its
counters and clock are the single source of truth for all benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.chip import SecureChip
from repro.hardware.clock import SimClock, TimeBreakdown
from repro.hardware.flash import FlashStats, NandFlash
from repro.hardware.ftl import FlashTranslationLayer
from repro.hardware.pagecache import CacheStats, PageCache
from repro.hardware.profiles import DEMO_DEVICE, HardwareProfile
from repro.hardware.ram import RamBudget
from repro.hardware.usb import UsbCapture, UsbChannel


def default_cache_pages(profile: HardwareProfile) -> int:
    """Default buffer-pool bound: a quarter of RAM, in pages.

    Generous enough that intra-query re-reads (SKT pages, posting
    extents) hit, small enough that firm operator reservations rarely
    need to shed it -- and shedding is cheap anyway (clean pages only).
    """
    return profile.ram_bytes // (4 * profile.page_size)


@dataclass
class DeviceCounters:
    """A consistent snapshot of all device counters at one instant."""

    time: TimeBreakdown
    flash: FlashStats
    ram_high_water: int
    usb_messages: int
    usb_bytes_to_device: int
    usb_bytes_to_host: int
    cache: CacheStats


class HardwareLease:
    """One session's plane: its share of the device's volatile resources
    and its private measurements.

    A lease owns a RAM budget carved out of the secure chip's RAM, a
    buffer pool over that budget, a simulated clock that starts at zero,
    a USB capture and flash op counters.  Flash contents, the FTL map
    and the secure chip are *not* leased -- they are the shared
    database.  Every device has one full-RAM lease from the start, over
    the root budget and pool that feed the ``ghostdb_device_*`` metrics.
    """

    def __init__(
        self,
        profile: HardwareProfile,
        ram_bytes: int,
        cache_pages: int | None = None,
        flight=None,
        metrics=None,
    ):
        self.capacity = ram_bytes
        #: Private simulated-time account, fed by the device clock while
        #: this lease is active.  Starts at zero like a single-session
        #: device's clock, so per-query time diffs are bit-identical to
        #: a serial run.
        self.clock = SimClock(profile)
        self.ram = RamBudget(capacity=ram_bytes, metrics=metrics, flight=flight)
        self.flash_stats = FlashStats()
        if cache_pages is None:
            # Same shape as the device default: a quarter of (partition)
            # RAM, so a full-RAM lease behaves exactly like the device's
            # own.
            cache_pages = ram_bytes // (4 * profile.page_size)
        self.cache = PageCache(
            budget=self.ram,
            page_size=profile.page_size,
            capacity_pages=cache_pages,
            metrics=metrics,
        )
        self.cache.flight = flight
        self.usb = UsbCapture()

    @property
    def firm_ram_used(self) -> int:
        """Non-reclaimable bytes currently reserved -- the number that
        must be zero once a session has no query in flight."""
        return self.ram.used - self.ram.reclaimable_used

    def reset(self) -> None:
        """Zero this plane's measurements; the pool starts cold."""
        self.clock.reset()
        self.usb.clear()
        self.flash_stats.clear()
        self.ram.reset_high_water()
        # Cached pages from earlier activity would otherwise bleed one
        # scenario's reuse into the next.
        self.cache.clear()
        self.cache.stats = CacheStats()


class SmartUsbDevice:
    """A simulated tamper-resistant smart USB device.

    Exactly one :class:`HardwareLease` is *active* at a time: RAM
    allocations, the buffer pool, flash op counters and the USB capture
    are the active plane's, and every clock charge lands in its private
    clock as well as in the device clock (the global timeline).  The
    device starts on its own full-RAM plane.
    """

    def __init__(
        self,
        profile: HardwareProfile = DEMO_DEVICE,
        metrics=None,
        cache_pages: int | None = None,
        flight=None,
    ):
        self.profile = profile
        self.metrics = metrics
        #: The session's :class:`~repro.obs.flight.FlightRecorder` (or
        #: None).  Host-side diagnostic state, like the USB capture log:
        #: journaling never touches the clock, the budget or the wire.
        self.flight = flight
        self.clock = SimClock(profile)
        self.flash = NandFlash(
            profile=profile, clock=self.clock, metrics=metrics
        )
        self.plane = HardwareLease(
            profile,
            profile.ram_bytes,
            cache_pages=cache_pages,
            flight=flight,
            metrics=metrics,
        )
        self.ftl = FlashTranslationLayer(flash=self.flash, flight=flight)
        self.chip = SecureChip(
            profile=profile, clock=self.clock, metrics=metrics
        )
        self.usb = UsbChannel(
            profile=profile, clock=self.clock, metrics=metrics
        )
        self.faults = None
        self.activate(self.plane)

    def activate(self, plane: HardwareLease) -> None:
        """Make ``plane`` the one every later operation uses."""
        self.plane = plane
        self.clock.feed(plane.clock)
        self.flash.stats = plane.flash_stats
        self.ftl.cache = plane.cache
        self.usb.capture = plane.usb

    @property
    def ram(self) -> RamBudget:
        return self.plane.ram

    @property
    def page_cache(self) -> PageCache:
        return self.plane.cache

    def attach_faults(self, injector) -> None:
        """Wire a :class:`~repro.faults.FaultInjector` into every
        hardware layer (USB link and NAND flash)."""
        if injector is not None and injector.metrics is None:
            injector.metrics = self.metrics
        if injector is not None and injector.flight is None:
            injector.flight = self.flight
        self.faults = injector
        self.usb.faults = injector
        self.flash.faults = injector

    def detach_faults(self) -> None:
        self.attach_faults(None)

    def remount(self) -> None:
        """Recover after a power cut or unplug.

        Volatile state (RAM contents, the in-memory FTL map) is gone;
        the flash array survives.  A fresh RAM budget is allocated and
        the FTL map is rebuilt from the spare-area journal
        (:meth:`~repro.hardware.ftl.FlashTranslationLayer.recover`),
        which rolls back torn writes to the last committed state.
        """
        plane = self.plane
        plane.ram = RamBudget(
            capacity=plane.capacity,
            metrics=plane.ram.metrics,
            flight=plane.ram.flight,
        )
        self.ftl = FlashTranslationLayer.recover(
            self.flash,
            spare_blocks=self.ftl.spare_blocks,
            flight=self.flight,
        )
        # Cached pages were volatile RAM: gone with the power.  Re-home
        # the pool on the fresh budget and hand it to the new FTL.
        plane.cache.rewire(plane.ram)
        self.ftl.cache = plane.cache
        if self.metrics is not None:
            self.metrics.counter("ghostdb_recovery_remounts_total").inc()
        if self.flight is not None:
            self.flight.record(
                "remount", mapped_pages=self.ftl.mapped_pages
            )

    def counters(self) -> DeviceCounters:
        """Snapshot the active plane's counters (cheap; used to diff
        around a query)."""
        plane = self.plane
        return DeviceCounters(
            time=plane.clock.breakdown(),
            flash=plane.flash_stats.snapshot(),
            ram_high_water=plane.ram.high_water,
            usb_messages=len(plane.usb.log),
            usb_bytes_to_device=plane.usb.bytes_to_device,
            usb_bytes_to_host=plane.usb.bytes_to_host,
            cache=plane.cache.stats.snapshot(),
        )

    def reset_measurements(self) -> None:
        """Zero the timeline (clock, traffic log, chip counters) and the
        active plane's measurements together.

        Storage contents and FTL state are preserved: this separates the
        (expensive, simulated) database load from the measured query, like
        unplugging and re-plugging the key.
        """
        self.clock.reset()
        self.usb.log.clear()
        self.chip.stats.cycles_by_op.clear()
        self.plane.reset()

    def __repr__(self) -> str:
        return (
            f"SmartUsbDevice(profile={self.profile.name!r}, "
            f"ram={self.profile.ram_bytes}B, "
            f"flash={self.profile.flash_bytes // (1024 * 1024)}MiB)"
        )
