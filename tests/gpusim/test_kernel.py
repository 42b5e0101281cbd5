"""KernelSpec/LaunchConfig construction and validation."""

import pytest

from repro.errors import InvalidLaunchError
from repro.gpusim.kernel import KernelSpec, LaunchConfig


class TestKernelSpec:
    def test_defaults(self):
        spec = KernelSpec(name="k")
        assert spec.bytes_per_elem == 8.0
        assert spec.coalesced

    def test_arithmetic_intensity(self):
        spec = KernelSpec(
            name="k", flops_per_elem=16.0, bytes_read_per_elem=4.0,
            bytes_written_per_elem=4.0,
        )
        assert spec.arithmetic_intensity == 2.0

    def test_arithmetic_intensity_zero_bytes(self):
        spec = KernelSpec(
            name="k", bytes_read_per_elem=0.0, bytes_written_per_elem=0.0
        )
        assert spec.arithmetic_intensity == float("inf")

    def test_unnamed_rejected(self):
        with pytest.raises(ValueError, match="named"):
            KernelSpec(name="")

    @pytest.mark.parametrize(
        "field",
        ["flops_per_elem", "bytes_read_per_elem", "bytes_written_per_elem",
         "sfu_per_elem", "dependent_loads_per_elem"],
    )
    def test_negative_mix_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            KernelSpec(name="k", **{field: -1.0})

    def test_nonpositive_registers_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec(name="k", registers_per_thread=0)

    def test_negative_smem_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec(name="k", shared_mem_per_block=-1)

    def test_scaled_override(self):
        spec = KernelSpec(name="k", flops_per_elem=2.0)
        variant = spec.scaled(name="k2", tensor_core=True)
        assert variant.name == "k2" and variant.tensor_core
        assert spec.name == "k" and not spec.tensor_core


class TestLaunchConfig:
    def test_total_threads(self):
        assert LaunchConfig(10, 128).total_threads == 1280

    def test_zero_blocks_rejected(self):
        with pytest.raises(InvalidLaunchError):
            LaunchConfig(0, 128)

    def test_zero_threads_rejected(self):
        with pytest.raises(InvalidLaunchError):
            LaunchConfig(10, 0)

    def test_workload_per_thread_ceil(self):
        cfg = LaunchConfig(1, 100)
        assert cfg.workload_per_thread(250) == 3
        assert cfg.workload_per_thread(100) == 1
        assert cfg.workload_per_thread(0) == 0

    def test_validate_against_device(self, v100):
        LaunchConfig(1, 1024).validate(v100)
        with pytest.raises(InvalidLaunchError):
            LaunchConfig(1, 1056).validate(v100)
