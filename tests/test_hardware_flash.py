"""NAND flash model: asymmetric timing, no in-place writes, wear."""

import pytest

from repro.hardware.clock import SimClock
from repro.hardware.flash import (
    FlashError,
    NandFlash,
    PageProgrammedError,
    WearOutError,
)
from repro.hardware.profiles import DEMO_DEVICE, HARSH_FLASH_DEVICE


@pytest.fixture
def flash():
    return NandFlash(profile=DEMO_DEVICE, clock=SimClock())


def test_program_then_read_roundtrip(flash):
    flash.program(0, b"hello flash")
    assert flash.read(0, 0, 11) == b"hello flash"


def test_erased_page_reads_as_ff(flash):
    assert flash.read(5, 0, 4) == b"\xff\xff\xff\xff"


def test_short_page_is_ff_padded(flash):
    flash.program(0, b"ab")
    assert flash.read(0, 0, 4) == b"ab\xff\xff"


def test_no_in_place_writes(flash):
    flash.program(0, b"first")
    with pytest.raises(PageProgrammedError, match="no in-place writes"):
        flash.program(0, b"second")


def test_erase_enables_reprogramming(flash):
    flash.program(0, b"first")
    flash.erase_block(0)
    flash.program(0, b"second")
    assert flash.read(0, 0, 6) == b"second"


def test_partial_read_is_cheaper_than_full(flash):
    small = DEMO_DEVICE.page_size // 8
    flash.program(0, b"x" * DEMO_DEVICE.page_size)
    flash.read(0, 0, small)
    partial_cost = flash.clock.breakdown().flash_read
    flash.read(0)
    assert partial_cost == DEMO_DEVICE.flash_read_partial_s
    assert flash.clock.breakdown().flash_read == (
        DEMO_DEVICE.flash_read_partial_s + DEMO_DEVICE.flash_read_full_s
    )
    assert DEMO_DEVICE.flash_read_full_s > partial_cost


def test_write_costs_the_paper_asymmetry(flash):
    """Writes are 3-10x slower than full-page reads."""
    ratio = DEMO_DEVICE.write_read_ratio
    assert 3.0 <= ratio <= 10.0
    harsh = HARSH_FLASH_DEVICE.write_read_ratio
    assert harsh == pytest.approx(10.0)


def test_operation_counters(flash):
    flash.program(0, b"a")
    flash.read(0, 0, 1)
    flash.read(0)
    flash.erase_block(0)
    assert flash.stats.page_writes == 1
    assert flash.stats.page_reads_partial == 1
    assert flash.stats.page_reads_full == 1
    assert flash.stats.page_reads == 2
    assert flash.stats.block_erases == 1


def test_page_bounds_checked(flash):
    with pytest.raises(FlashError):
        flash.read(flash.num_pages)
    with pytest.raises(FlashError):
        flash.program(-1, b"")
    with pytest.raises(FlashError):
        flash.read(0, DEMO_DEVICE.page_size - 2, 4)


def test_oversized_page_data_rejected(flash):
    with pytest.raises(FlashError, match="exceeds page size"):
        flash.program(0, b"x" * (DEMO_DEVICE.page_size + 1))


def test_erase_is_block_granular(flash):
    pages = DEMO_DEVICE.pages_per_block
    flash.program(0, b"a")
    flash.program(pages - 1, b"b")
    flash.program(pages, b"c")  # next block
    flash.erase_block(0)
    assert not flash.is_programmed(0)
    assert not flash.is_programmed(pages - 1)
    assert flash.is_programmed(pages)


def test_wear_out_enforced_when_configured():
    profile = DEMO_DEVICE.with_overrides(max_erase_cycles=3)
    flash = NandFlash(profile=profile, clock=SimClock())
    for _ in range(3):
        flash.erase_block(0)
    with pytest.raises(WearOutError):
        flash.erase_block(0)
    # Other blocks unaffected.
    flash.erase_block(1)


def test_max_wear_metric(flash):
    flash.erase_block(3)
    flash.erase_block(3)
    flash.erase_block(7)
    assert flash.max_wear == 2
    assert flash.erase_count(3) == 2
    assert flash.erase_count(0) == 0


def test_charge_partial_reads_models_metadata_io(flash):
    t0 = flash.clock.now
    flash.charge_partial_reads(4)
    assert flash.stats.page_reads_partial == 4
    assert flash.clock.now - t0 == 4 * DEMO_DEVICE.flash_read_partial_s
    with pytest.raises(FlashError):
        flash.charge_partial_reads(-1)
