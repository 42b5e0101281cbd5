"""Shared-memory tiling: the derived kernel specs.

The numerics of the shared backend are the global backend's; their
bitwise equality, edge tiles included, is asserted in
``tests/engines/test_cross_engine.py``.
"""

import pytest

from repro.errors import InvalidLaunchError
from repro.gpusim.kernel import KernelSpec
from repro.gpusim.sharedmem import shared_mem_spec


class TestSharedMemSpec:
    def _base(self):
        return KernelSpec(
            name="update", flops_per_elem=10.0, bytes_read_per_elem=20.0,
            bytes_written_per_elem=4.0,
        )

    def test_allocates_tiles_for_inputs_plus_output(self):
        spec = shared_mem_spec(self._base(), n_input_matrices=5)
        assert spec.shared_mem_per_block == 6 * 32 * 32 * 4

    def test_name_suffixed(self):
        assert shared_mem_spec(self._base(), 2).name == "update_smem"

    def test_forces_coalesced(self):
        base = self._base().scaled(coalesced=False)
        assert shared_mem_spec(base, 2).coalesced

    def test_adds_staging_instructions(self):
        spec = shared_mem_spec(self._base(), 2)
        assert spec.flops_per_elem > self._base().flops_per_elem

    def test_requires_inputs(self):
        with pytest.raises(InvalidLaunchError):
            shared_mem_spec(self._base(), 0)

    def test_custom_tile_size(self):
        spec = shared_mem_spec(self._base(), 1, tile_size=16)
        assert spec.shared_mem_per_block == 2 * 16 * 16 * 4
