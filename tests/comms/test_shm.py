"""Tests for the shared-memory slot-ring transport (repro.comms.shm)."""

import threading
import time

import numpy as np
import pytest

from repro.comms.shm import RingClient, ShmRing, active_segments


class TestSlotRoundtrip:
    def test_request_then_response_share_one_slot(self):
        with ShmRing(slots=2, slot_bytes=1 << 14) as ring:
            rng = np.random.default_rng(0)
            request = rng.standard_normal((1, 8, 8))
            response = rng.standard_normal((1, 8, 8))
            slot = ring.acquire()
            end = ring.put_array(slot, 0, request)
            assert end == request.nbytes
            offset = ring.response_offset(request.shape)
            assert offset == request.nbytes
            ring.put_array(slot, offset, response)
            # The response write must not clobber the request payload —
            # crash-retry reads the request again after a response write.
            assert np.array_equal(ring.get_array(slot, 0, request.shape), request)
            assert np.array_equal(
                ring.get_array(slot, offset, response.shape), response
            )

    def test_get_returns_a_copy(self):
        with ShmRing(slots=1, slot_bytes=1 << 12) as ring:
            ring.put_array(0, 0, np.ones((2, 2)))
            out = ring.get_array(0, 0, (2, 2))
            ring.put_array(0, 0, np.zeros((2, 2)))
            assert np.array_equal(out, np.ones((2, 2)))

    def test_fits(self):
        with ShmRing(slots=1, slot_bytes=2 * 64 * 8) as ring:
            assert ring.fits((1, 8, 8), (1, 8, 8))
            assert not ring.fits((1, 8, 8), (1, 8, 9))

    def test_oversized_array_rejected(self):
        with ShmRing(slots=1, slot_bytes=64) as ring:
            with pytest.raises(ValueError, match="does not fit"):
                ring.put_array(0, 0, np.zeros((3, 3)))
            with pytest.raises(ValueError, match="does not fit"):
                ring.get_array(0, 32, (5,))

    def test_bad_slot_rejected(self):
        with ShmRing(slots=2, slot_bytes=64) as ring:
            with pytest.raises(ValueError, match="out of range"):
                ring.put_array(2, 0, np.zeros(2))


class TestFreeList:
    def test_exhaustion_is_nonblocking_none(self):
        with ShmRing(slots=2, slot_bytes=64) as ring:
            assert ring.acquire() == 0
            assert ring.acquire() == 1
            assert ring.acquire() is None  # timeout=0 never blocks
            assert ring.free_slots() == 0

    def test_release_recycles(self):
        with ShmRing(slots=1, slot_bytes=64) as ring:
            slot = ring.acquire()
            assert ring.acquire() is None
            ring.release(slot)
            assert ring.acquire() == slot

    def test_double_release_raises(self):
        with ShmRing(slots=2, slot_bytes=64) as ring:
            slot = ring.acquire()
            ring.release(slot)
            with pytest.raises(ValueError, match="released twice"):
                ring.release(slot)

    def test_acquire_waits_for_release(self):
        with ShmRing(slots=1, slot_bytes=64) as ring:
            slot = ring.acquire()

            def _release_soon():
                time.sleep(0.05)
                ring.release(slot)

            thread = threading.Thread(target=_release_soon)
            thread.start()
            try:
                assert ring.acquire(timeout=5.0) == slot
            finally:
                thread.join()

    def test_destroy_wakes_blocked_acquire(self):
        ring = ShmRing(slots=1, slot_bytes=64)
        ring.acquire()
        result = []

        def _blocked():
            result.append(ring.acquire(timeout=5.0))

        thread = threading.Thread(target=_blocked)
        thread.start()
        time.sleep(0.05)
        ring.destroy()
        thread.join(timeout=5.0)
        assert result == [None]


class TestHygiene:
    def test_registry_tracks_owner_lifecycle(self):
        assert active_segments() == []
        ring = ShmRing(slots=1, slot_bytes=64)
        assert active_segments() == [ring.name]
        ring.destroy()
        assert active_segments() == []

    def test_destroy_idempotent(self):
        ring = ShmRing(slots=1, slot_bytes=64)
        ring.destroy()
        ring.destroy()
        assert active_segments() == []

    def test_context_manager_destroys(self):
        with ShmRing(slots=1, slot_bytes=64) as ring:
            name = ring.name
            assert name in active_segments()
        assert active_segments() == []

    def test_client_attach_never_owns(self):
        with ShmRing(slots=1, slot_bytes=1 << 12) as ring:
            ring.put_array(0, 0, np.arange(4.0))
            with RingClient(ring.name, ring.slots, ring.slot_bytes) as client:
                # Client sees the owner's writes and vice versa.
                assert np.array_equal(client.get_array(0, 0, (4,)), np.arange(4.0))
                client.put_array(0, 0, np.full(4, 7.0))
            assert np.array_equal(ring.get_array(0, 0, (4,)), np.full(4, 7.0))
            # Client close must not have removed the owner's registration.
            assert ring.name in active_segments()
        assert active_segments() == []

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="slots must be positive"):
            ShmRing(slots=0, slot_bytes=64)
        with pytest.raises(ValueError, match="slot_bytes must be positive"):
            ShmRing(slots=1, slot_bytes=0)
