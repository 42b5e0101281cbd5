"""Tensor-core (wmma) execution model with genuine mixed-precision effects.

Section 3.5 of the paper maps the element-wise swarm update onto tensor
cores by treating it as warp-level tiled matrix work: matrices are loaded
into 16x16 *fragments*, multiplied in half precision with fp32 accumulation,
and the results are synchronised back to global memory.  Two consequences
are modelled faithfully:

* **numerics** — multiplicand fragments are rounded to IEEE float16 before
  multiplication (accumulation stays fp32), exactly like Volta HMMA.  The
  element-wise products in Eq. (4) therefore carry ~1e-3 relative rounding,
  which is why fastpso's Table 2 errors match but do not beat the fp32
  baselines.  :func:`fragment_multiply_add` implements this and is what the
  tensor-core backend's velocity kernel calls.  When the native fast-path
  library is loaded (:func:`repro.gpusim.fastpath.load`) and the operands
  are C-contiguous float32, the product runs as one C call
  (``fp16_product`` in ``_fastpath.c``, F16C conversions where the CPU has
  them); otherwise, and under ``REPRO_NO_NATIVE_FASTPATH=1``, the NumPy
  round trip below runs, which is the reference the C kernel is tested
  against byte for byte.
* **performance** — the update is bandwidth-bound, so using HMMA arithmetic
  does not reduce elapsed time; the kernel spec swaps the arithmetic
  throughput term and adds fragment load/sync instruction overhead.  The
  paper's Figure 6 observes exactly this near-tie with the other GPU
  backends.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidLaunchError
from repro.gpusim import fastpath
from repro.gpusim.device import DeviceSpec
from repro.gpusim.kernel import KernelSpec

__all__ = [
    "FRAGMENT_DIM",
    "to_half",
    "fragment_multiply_add",
    "tensor_core_spec",
    "supports_tensor_cores",
]

FRAGMENT_DIM = 16  # wmma fragments are 16x16 on Volta


def supports_tensor_cores(spec: DeviceSpec) -> bool:
    """Whether the device has tensor cores (the laptop preset does not)."""
    return spec.tensor_cores_per_sm > 0


def to_half(arr: np.ndarray) -> np.ndarray:
    """Round an fp32/fp64 array to IEEE binary16, keeping the input shape.

    Values beyond float16 range saturate to +/-inf exactly as hardware
    conversion does; callers that must avoid this (none in PSO's [0,1)
    weights) should pre-scale.
    """
    with np.errstate(over="ignore"):  # saturation to inf is the hw contract
        return np.asarray(arr).astype(np.float16)


def _c_f32(arr: np.ndarray) -> bool:
    return arr.dtype == np.float32 and arr.flags.c_contiguous


def fragment_multiply_add(
    a: np.ndarray,
    b: np.ndarray,
    acc: np.ndarray | None = None,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Element-wise ``a * b + acc`` with HMMA precision semantics.

    ``a`` and ``b`` are rounded to fp16 (fragment load), the product and
    accumulation are carried out in fp32 (Volta accumulates HMMA partial
    products at full precision).  Shapes must match; broadcasting is
    deliberately not supported because wmma fragments are fixed-shape.

    The float32 result is written into *out* when given (it may be ``a``
    or ``b`` itself), else into a new array.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise InvalidLaunchError(
            f"fragment operands must have identical shapes, got {a.shape} vs {b.shape}"
        )
    if acc is not None:
        acc = np.asarray(acc, dtype=np.float32)
        if acc.shape != a.shape:
            raise InvalidLaunchError(
                f"accumulator shape {acc.shape} does not match operands {a.shape}"
            )
    if out is None:
        out = np.empty(a.shape, dtype=np.float32)
    elif out.shape != a.shape:
        raise InvalidLaunchError(
            f"output shape {out.shape} does not match operands {a.shape}"
        )
    lib = fastpath.load()
    if lib is not None and _c_f32(a) and _c_f32(b) and _c_f32(out):
        lib.fp16_product(a.ctypes.data, b.ctypes.data, out.ctypes.data, a.size)
    else:
        np.multiply(
            to_half(a).astype(np.float32), to_half(b).astype(np.float32), out=out
        )
    if acc is not None:
        np.add(out, acc, out=out)
    return out


def tensor_core_spec(
    base: KernelSpec,
    *,
    block_threads: int = 256,
) -> KernelSpec:
    """Derive the tensor-core variant of an element-wise kernel spec.

    Fragments are staged through shared memory (wmma requires aligned
    16x16 tiles), arithmetic moves to the tensor pipes, and each fragment
    costs a load/sync/store instruction bundle amortised over its 256
    elements.
    """
    if block_threads % 32:
        raise InvalidLaunchError("tensor-core blocks must be warp-multiples")
    frag_bytes = FRAGMENT_DIM * FRAGMENT_DIM * 2  # fp16 staging
    # Two input fragments + one fp32 accumulator tile per warp; a 256-thread
    # block holds 8 warps.
    warps = block_threads // 32
    smem = warps * (2 * frag_bytes + FRAGMENT_DIM * FRAGMENT_DIM * 4)
    return base.scaled(
        name=f"{base.name}_wmma",
        tensor_core=True,
        shared_mem_per_block=smem,
        flops_per_elem=base.flops_per_elem + 1.0,  # fragment shuffle overhead
        registers_per_thread=base.registers_per_thread + 8,
        coalesced=True,
    )
