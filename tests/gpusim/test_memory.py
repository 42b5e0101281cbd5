"""Global memory accounting, buffer lifetime and transfer timing."""

import numpy as np
import pytest

from repro.errors import DeviceOutOfMemoryError, MemoryAccessError
from repro.gpusim.clock import SimClock
from repro.gpusim.device import tesla_v100
from repro.gpusim.memory import DeviceBuffer, GlobalMemory, TransferEngine


class TestGlobalMemory:
    def test_reserve_release_roundtrip(self):
        mem = GlobalMemory(1000)
        mem.reserve(600)
        assert mem.free_bytes == 400
        mem.release(600)
        assert mem.used_bytes == 0

    def test_oom_raises_with_details(self):
        mem = GlobalMemory(1000)
        mem.reserve(900)
        with pytest.raises(DeviceOutOfMemoryError) as exc:
            mem.reserve(200)
        assert exc.value.requested == 200
        assert exc.value.free == 100
        assert exc.value.total == 1000

    def test_oom_leaves_state_unchanged(self):
        mem = GlobalMemory(1000)
        mem.reserve(900)
        with pytest.raises(DeviceOutOfMemoryError):
            mem.reserve(200)
        assert mem.used_bytes == 900

    def test_high_water_mark(self):
        mem = GlobalMemory(1000)
        mem.reserve(700)
        mem.release(500)
        mem.reserve(100)
        assert mem.high_water_bytes == 700

    def test_over_release_rejected(self):
        mem = GlobalMemory(1000)
        mem.reserve(100)
        with pytest.raises(MemoryAccessError):
            mem.release(200)

    def test_negative_amounts_rejected(self):
        mem = GlobalMemory(1000)
        with pytest.raises(ValueError):
            mem.reserve(-1)
        with pytest.raises(ValueError):
            mem.release(-1)


class TestDeviceBuffer:
    def test_array_shape_and_dtype(self):
        buf = DeviceBuffer(1024, (4, 8), np.float32)
        arr = buf.array()
        assert arr.shape == (4, 8)
        assert arr.dtype == np.float32
        assert np.all(arr == 0)

    def test_use_after_free(self):
        buf = DeviceBuffer(64, (4,), np.float32)
        buf.retire()
        with pytest.raises(MemoryAccessError, match="after free"):
            buf.array()

    def test_shape_exceeding_reservation_rejected(self):
        with pytest.raises(ValueError, match="bytes"):
            DeviceBuffer(16, (100,), np.float64)

    def test_reshape_view_revives_buffer(self):
        buf = DeviceBuffer(1024, (4, 8), np.float32)
        buf.retire()
        buf.reshape_view((16, 8), np.float64)
        arr = buf.array()
        assert arr.shape == (16, 8) and arr.dtype == np.float64

    def test_contents_persist_until_reshaped(self):
        buf = DeviceBuffer(1024, (4, 8), np.float32)
        buf.array()[:] = 3.0
        assert np.all(buf.array() == 3.0)
        buf.reshape_view((4, 8), np.float32)
        assert np.all(buf.array() == 0)

    def test_reshape_view_too_large_rejected(self):
        buf = DeviceBuffer(64, (4,), np.float32)
        with pytest.raises(ValueError):
            buf.reshape_view((100,), np.float64)

    @pytest.mark.parametrize("shape", [(), (6,), (3, 2)])
    def test_exact_fit_accepted_one_byte_short_rejected(self, shape):
        # Sizes come from math.prod; they must equal NumPy's product,
        # the empty shape included (one element).
        logical = int(np.prod(shape, dtype=np.int64)) * 8
        buf = DeviceBuffer(logical, shape, np.float64)
        assert buf.array().nbytes == logical
        with pytest.raises(ValueError, match="bytes"):
            DeviceBuffer(logical - 1, shape, np.float64)
        buf.reshape_view(shape, np.float64)
        with pytest.raises(ValueError, match="pooled block"):
            buf.reshape_view(shape, np.complex128)

    def test_reshape_view_accepts_numpy_integer_shapes(self):
        buf = DeviceBuffer(64, (4,), np.float32)
        buf.reshape_view((np.int64(2), np.int32(4)), np.float64)
        assert buf.shape == (2, 4) and type(buf.shape[0]) is int

    def test_buffer_ids_unique(self):
        a, b = DeviceBuffer(64, (4,), np.float32), DeviceBuffer(64, (4,), np.float32)
        assert a.buffer_id != b.buffer_id


class TestTransferEngine:
    def _engine(self):
        clock = SimClock()
        return TransferEngine(tesla_v100(), clock), clock

    def test_htod_copies_and_charges_time(self):
        eng, clock = self._engine()
        buf = DeviceBuffer(1024, (16,), np.float32)
        eng.htod(buf, np.arange(16, dtype=np.float32))
        np.testing.assert_array_equal(buf.array(), np.arange(16))
        assert clock.now > 0
        assert eng.bytes_h2d == 64

    def test_dtoh_returns_copy(self):
        eng, _ = self._engine()
        buf = DeviceBuffer(1024, (8,), np.float32)
        buf.array()[:] = 3.0
        host = eng.dtoh(buf)
        host[:] = 0.0
        assert np.all(buf.array() == 3.0)

    def test_transfer_time_scales_with_bytes(self):
        eng, clock = self._engine()
        small = DeviceBuffer(4096, (1024,), np.float32)
        big = DeviceBuffer(4 << 20, (1 << 20,), np.float32)
        eng.htod(small, np.zeros(1024, np.float32))
        t_small = clock.now
        eng.htod(big, np.zeros(1 << 20, np.float32))
        t_big = clock.now - t_small
        assert t_big > t_small

    def test_htod_shape_mismatch(self):
        eng, _ = self._engine()
        buf = DeviceBuffer(1024, (16,), np.float32)
        with pytest.raises(MemoryAccessError, match="shape mismatch"):
            eng.htod(buf, np.zeros(8, np.float32))

    def test_transfer_to_freed_buffer_rejected(self):
        eng, _ = self._engine()
        buf = DeviceBuffer(1024, (16,), np.float32)
        buf.retire()
        with pytest.raises(MemoryAccessError):
            eng.htod(buf, np.zeros(16, np.float32))
