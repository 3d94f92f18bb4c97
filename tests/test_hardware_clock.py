"""SimClock accounting: exact integer counts, converted on read."""

import random

import pytest

from repro.hardware.clock import (
    CATEGORIES,
    PICOSECONDS,
    UNITS,
    SimClock,
    TimeBreakdown,
)
from repro.hardware.profiles import DEMO_DEVICE, PROFILES


def test_clock_starts_at_zero():
    clock = SimClock()
    assert clock.now == 0.0
    assert clock.breakdown().total == 0.0


def test_advance_accumulates_per_category():
    clock = SimClock()
    clock.advance(2, "page_reads_partial")
    clock.advance(3, "page_reads_full")
    clock.advance(1, "usb_messages")
    breakdown = clock.breakdown()
    assert clock.ticks["page_reads_partial"] == 2
    assert clock.ticks["page_reads_full"] == 3
    assert breakdown.flash_read == (
        2 * DEMO_DEVICE.flash_read_partial_s + 3 * DEMO_DEVICE.flash_read_full_s
    )
    assert breakdown.usb == DEMO_DEVICE.usb_setup_s
    assert clock.now == breakdown.flash_read + breakdown.usb


def test_every_declared_category_is_chargeable():
    clock = SimClock()
    for category in CATEGORIES:
        clock.stall(0.25, category)
    assert clock.breakdown().as_dict() == dict.fromkeys(CATEGORIES, 0.25)
    assert clock.now == 0.25 * len(CATEGORIES)
    assert set(UNITS.values()) == set(CATEGORIES)


def test_unknown_category_rejected():
    clock = SimClock()
    with pytest.raises(ValueError, match="unknown clock unit"):
        clock.advance(1, "quantum")
    with pytest.raises(ValueError, match="unknown clock category"):
        clock.stall(1.0, "quantum")


def test_negative_charge_rejected():
    clock = SimClock()
    with pytest.raises(ValueError, match="negative"):
        clock.advance(-1, "cpu_cycles")
    with pytest.raises(ValueError, match="negative"):
        clock.stall(-0.1, "cpu")


def test_fractional_count_rejected():
    clock = SimClock()
    with pytest.raises(TypeError, match="integers"):
        clock.advance(0.5, "cpu_cycles")


def test_breakdown_is_a_snapshot():
    clock = SimClock()
    clock.advance(50, "cpu_cycles")
    snap = clock.breakdown()
    clock.advance(50, "cpu_cycles")
    assert snap.cpu == 50 / DEMO_DEVICE.cpu_hz
    assert clock.breakdown().cpu == 100 / DEMO_DEVICE.cpu_hz


def test_breakdown_subtraction():
    a = TimeBreakdown(flash_read=2.0, usb=1.0)
    b = TimeBreakdown(flash_read=0.5, usb=1.0)
    diff = a - b
    assert diff.flash_read == 1.5
    assert diff.usb == 0.0
    assert diff.total == 1.5


def test_breakdown_as_dict_covers_all_categories():
    assert set(TimeBreakdown().as_dict()) == set(CATEGORIES)


def test_reset_zeroes_everything():
    clock = SimClock()
    clock.advance(1, "page_programs")
    clock.reset()
    assert clock.now == 0.0
    assert clock.breakdown().flash_write == 0.0
    assert set(clock.ticks.values()) == {0}


def test_charge_order_does_not_change_the_breakdown():
    """One multiset of charges, applied in two orders, reads
    bit-identically -- float summation would drift here."""
    rng = random.Random(7)
    charges = [
        (rng.randint(0, 500), unit)
        for unit in UNITS
        if not unit.endswith("_stall_ps")
        for _ in range(200)
    ]
    charges += [(rng.random() * 1e-3, category) for category in CATEGORIES]
    shuffled = list(charges)
    rng.shuffle(shuffled)

    def replay(sequence) -> SimClock:
        clock = SimClock()
        for amount, name in sequence:
            if name in CATEGORIES:
                clock.stall(amount, name)
            else:
                clock.advance(amount, name)
        return clock

    forward, mixed = replay(charges), replay(shuffled)
    assert forward.breakdown() == mixed.breakdown()
    assert forward.now == mixed.now
    # Charging a window's primitives at once equals charging each one.
    one_by_one, bulk = SimClock(), SimClock()
    for _ in range(1000):
        one_by_one.advance(60, "cpu_cycles")
    bulk.advance(60 * 1000, "cpu_cycles")
    assert one_by_one.breakdown() == bulk.breakdown()


@pytest.mark.parametrize("alias", sorted(PROFILES))
def test_conversion_uses_the_profile_constants(alias):
    profile = PROFILES[alias]
    clock = SimClock(profile)
    clock.advance(3, "page_reads_partial")
    clock.advance(5, "page_reads_full")
    clock.advance(7, "page_programs")
    clock.advance(2, "block_erases")
    clock.advance(4, "usb_messages")
    clock.advance(96_000, "usb_bits")
    clock.advance(1_000_000, "cpu_cycles")
    assert clock.breakdown() == TimeBreakdown(
        flash_read=3 * profile.flash_read_partial_s
        + 5 * profile.flash_read_full_s,
        flash_write=7 * profile.flash_write_s,
        flash_erase=2 * profile.flash_erase_s,
        usb=4 * profile.usb_setup_s + 96_000 / profile.usb_bits_per_s,
        cpu=1_000_000 / profile.cpu_hz,
    )
    if alias == "high-speed":
        # 480 Mb/s: 96 000 bits are 200 us on the wire.
        assert 96_000 / profile.usb_bits_per_s == 0.0002


def test_stall_counts_whole_picoseconds():
    clock = SimClock()
    clock.stall(0.002, "usb")
    clock.stall(0.004, "usb")
    assert clock.ticks["usb_stall_ps"] == 6 * 10**9
    assert clock.breakdown().usb == 6 * 10**9 / PICOSECONDS


def test_feed_charges_the_plane_too():
    device_clock, session_clock = SimClock(), SimClock()
    device_clock.advance(10, "cpu_cycles")
    device_clock.feed(session_clock)
    device_clock.advance(5, "cpu_cycles")
    assert device_clock.ticks["cpu_cycles"] == 15
    assert session_clock.ticks["cpu_cycles"] == 5


def test_component_with_other_timing_constants_rejected():
    from repro.hardware.chip import SecureChip

    with pytest.raises(ValueError, match="cpu_hz"):
        SecureChip(
            profile=DEMO_DEVICE.with_overrides(cpu_hz=1e6), clock=SimClock()
        )
