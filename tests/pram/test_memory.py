"""Unit tests for shared memory semantics."""

import pytest

from repro.pram.errors import MemoryError_
from repro.pram.memory import POISON, MemoryReader, SharedMemory


class TestConstruction:
    def test_cleared_to_zero(self):
        memory = SharedMemory(8)
        assert memory.snapshot() == [0] * 8

    def test_initial_contents(self):
        memory = SharedMemory(4, initial=[5, 6])
        assert memory.snapshot() == [5, 6, 0, 0]

    def test_rejects_oversized_initial(self):
        with pytest.raises(MemoryError_):
            SharedMemory(2, initial=[1, 2, 3])

    def test_rejects_non_positive_size(self):
        with pytest.raises(MemoryError_):
            SharedMemory(0)


class TestReadWrite:
    def test_roundtrip(self):
        memory = SharedMemory(4)
        memory.write(2, 17)
        assert memory.read(2) == 17

    def test_bounds_checked(self):
        memory = SharedMemory(4)
        with pytest.raises(MemoryError_):
            memory.read(4)
        with pytest.raises(MemoryError_):
            memory.write(-1, 0)

    def test_rejects_non_integer_values(self):
        memory = SharedMemory(4)
        with pytest.raises(MemoryError_):
            memory.write(0, 1.5)
        with pytest.raises(MemoryError_):
            memory.write(0, True)

    def test_traffic_counters(self):
        memory = SharedMemory(4)
        memory.write(0, 1)
        memory.write(1, 2)
        memory.read(0)
        assert memory.writes_applied == 2
        assert memory.reads_served == 1

    def test_peek_and_poke_are_uncharged(self):
        memory = SharedMemory(4)
        memory.poke(0, 9)
        assert memory.peek(0) == 9
        assert memory.reads_served == 0
        assert memory.writes_applied == 0


class TestWordBits:
    def test_enforced_on_write(self):
        memory = SharedMemory(4, word_bits=8)
        memory.write(0, 255)
        with pytest.raises(MemoryError_):
            memory.write(0, 256)

    def test_enforced_on_initial(self):
        with pytest.raises(MemoryError_):
            SharedMemory(4, initial=[300], word_bits=8)

    def test_unbounded_by_default(self):
        memory = SharedMemory(1)
        memory.write(0, 10**30)
        assert memory.read(0) == 10**30


class TestRegion:
    def test_region_copy(self):
        memory = SharedMemory(6, initial=[1, 2, 3, 4, 5, 6])
        assert memory.region(2, 3) == [3, 4, 5]

    def test_region_bounds(self):
        memory = SharedMemory(4)
        with pytest.raises(MemoryError_):
            memory.region(2, 5)

    def test_load(self):
        memory = SharedMemory(5)
        memory.load([7, 8], offset=2)
        assert memory.snapshot() == [0, 0, 7, 8, 0]


class TestMemoryReader:
    def test_read_only_view(self):
        memory = SharedMemory(4, initial=[9])
        reader = MemoryReader(memory)
        assert reader.read(0) == 9
        assert reader[0] == 9
        assert len(reader) == 4
        assert reader.snapshot() == [9, 0, 0, 0]
        assert not hasattr(reader, "write")

    def test_reader_reads_are_uncharged(self):
        memory = SharedMemory(4)
        reader = MemoryReader(memory)
        reader.read(0)
        assert memory.reads_served == 0


class TestRawReaderReads:
    """In-range int reads skip validation; everything else must not."""

    def test_in_range_reads_match_peek(self):
        memory = SharedMemory(6, initial=[4, 0, -2, 9])
        memory.mark_faulty([1, 5])
        reader = MemoryReader(memory)
        for address in range(6):
            assert reader.read(address) == memory.peek(address)
            assert reader[address] == memory.peek(address)
        assert reader.read(5) == POISON
        memory.write(3, 11)
        assert reader.read(3) == 11

    @pytest.mark.parametrize("address", [-1, 6, True, 2.0, "3"])
    def test_invalid_addresses_raise_like_peek(self, address):
        memory = SharedMemory(6)
        reader = MemoryReader(memory)
        with pytest.raises(MemoryError_) as expected:
            memory.peek(address)
        for read in (reader.read, reader.__getitem__):
            with pytest.raises(MemoryError_) as got:
                read(address)
            assert str(got.value) == str(expected.value)


class TestRegionBoundary:
    """Zero-length regions are legal anywhere in [0, size]."""

    def test_empty_region_at_end_of_memory(self):
        memory = SharedMemory(4)
        assert memory.region(4, 0) == []

    def test_empty_region_inside_memory(self):
        memory = SharedMemory(4)
        assert memory.region(0, 0) == []
        assert memory.region(2, 0) == []

    def test_empty_region_past_end_still_raises(self):
        memory = SharedMemory(4)
        with pytest.raises(MemoryError_):
            memory.region(5, 0)
        with pytest.raises(MemoryError_):
            memory.region(-1, 0)

    def test_negative_length_raises(self):
        memory = SharedMemory(4)
        with pytest.raises(MemoryError_):
            memory.region(0, -1)

    def test_full_region_at_boundary(self):
        memory = SharedMemory(4, initial=[1, 2, 3, 4])
        assert memory.region(3, 1) == [4]
        with pytest.raises(MemoryError_):
            memory.region(4, 1)

    def test_reader_empty_region_at_end(self):
        memory = SharedMemory(4)
        assert MemoryReader(memory).region(4, 0) == []


class TestZeroRegionTracker:
    def test_tracker_counts_and_updates(self):
        memory = SharedMemory(6, initial=[1, 0, 0, 2, 0, 0])
        tracker = memory.track_zeros(0, 4)
        assert tracker.zeros == 2
        memory.write(1, 5)
        assert tracker.zeros == 1
        memory.poke(2, 7)
        assert tracker.zeros == 0
        assert tracker.all_nonzero
        memory.write(3, 0)  # value leaves the region's non-zero set
        assert tracker.zeros == 1
        memory.write(5, 9)  # outside the tracked region: no effect
        assert tracker.zeros == 1

    def test_tracker_is_idempotent_per_region(self):
        memory = SharedMemory(4)
        first = memory.track_zeros(0, 4)
        second = memory.track_zeros(0, 4)
        assert first is second
        assert memory.track_zeros(0, 2) is not first

    def test_tracker_via_commit_resolved(self):
        memory = SharedMemory(4)
        tracker = memory.track_zeros(0, 4)
        memory.commit_resolved([(0, 1), (2, 3)])
        assert tracker.zeros == 2
        assert memory.writes_applied == 2
        assert memory.snapshot() == [1, 0, 3, 0]

    def test_tracker_bounds_validated(self):
        memory = SharedMemory(4)
        with pytest.raises(MemoryError_):
            memory.track_zeros(0, 5)
        with pytest.raises(MemoryError_):
            memory.track_zeros(-1, 2)

    def test_reader_exposes_track_zeros(self):
        memory = SharedMemory(4, initial=[1])
        tracker = MemoryReader(memory).track_zeros(0, 4)
        assert tracker.zeros == 3
