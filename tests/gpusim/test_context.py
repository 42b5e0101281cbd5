"""GpuContext wiring: factory, allocator flavours, profiling, OOM."""

import numpy as np
import pytest

from repro.errors import DeviceOutOfMemoryError
from repro.gpusim.alloc import CachingAllocator, DirectAllocator
from repro.gpusim.context import make_context
from repro.gpusim.device import laptop_gpu
from repro.gpusim.kernel import KernelSpec


class TestMakeContext:
    def test_default_is_v100_with_caching(self, ctx):
        assert ctx.spec.sm_count == 80
        assert isinstance(ctx.allocator, CachingAllocator)

    def test_direct_allocator_flavour(self, ctx_direct):
        assert isinstance(ctx_direct.allocator, DirectAllocator)

    def test_custom_spec(self):
        ctx = make_context(laptop_gpu())
        assert ctx.spec.name == "Laptop-GTX1650"

    def test_shared_clock(self, ctx):
        """Launcher, allocator and transfers advance one timeline."""
        buf = ctx.alloc_matrix(100, 10)
        t_alloc = ctx.now
        assert t_alloc > 0
        k = KernelSpec(name="k")
        ctx.launcher.launch(k, 1000)
        assert ctx.now > t_alloc
        ctx.transfers.htod(buf, np.zeros((100, 10), np.float32))
        assert ctx.now > t_alloc

    def test_alloc_helpers(self, ctx):
        mat = ctx.alloc_matrix(8, 4, dtype=np.float64)
        vec = ctx.alloc_vector(8)
        assert mat.array().shape == (8, 4)
        assert vec.array().shape == (8,)
        ctx.free(mat)
        ctx.free(vec)

    def test_oom_on_oversized_swarm(self):
        ctx = make_context(laptop_gpu())  # 4 GB card
        with pytest.raises(DeviceOutOfMemoryError):
            ctx.alloc_matrix(200_000, 10_000)  # 8 GB of float32

    def test_rng_namespaced_by_device(self):
        a = make_context(device_index=0).make_rng(1).random_uint32(64)
        b = make_context(device_index=1).make_rng(1).random_uint32(64)
        assert not np.array_equal(a, b)

    def test_profile_report_reflects_launches(self, ctx):
        k = KernelSpec(name="probe")
        ctx.launcher.launch(k, 1000)
        report = ctx.profile_report()
        assert "probe" in report.kernels

    def test_reset_timeline(self, ctx):
        k = KernelSpec(name="probe")
        ctx.launcher.launch(k, 1000)
        ctx.reset_timeline()
        assert ctx.now == 0.0
        assert ctx.launcher.records == []

    def test_new_stream_registered(self, ctx):
        s = ctx.new_stream()
        assert s in ctx.streams
